#include "cnn/quant_analysis.h"

#include "fixedpoint/quantize.h"
#include "util/parallel.h"
#include "util/rng.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace dvafs {

teacher_dataset make_teacher_dataset(const network& net,
                                     const quant_sweep_config& cfg)
{
    teacher_dataset data;
    pcg32 rng(cfg.seed);
    for (int i = 0; i < cfg.images; ++i) {
        tensor x(net.input_shape());
        for (float& v : x.flat()) {
            // Image-like inputs: non-negative, moderately sparse.
            const double g = rng.gaussian(0.25, 0.35);
            v = static_cast<float>(std::max(0.0, std::min(1.0, g)));
        }
        data.inputs.push_back(std::move(x));
    }
    // Inputs are drawn serially (the RNG stream fixes them); only the
    // teacher forward passes fan out.
    data.labels.resize(data.inputs.size());
    const bound_network teacher(net, std::vector<layer_quant>(net.depth()));
    parallel_for(data.inputs.size(), cfg.threads, [&](std::size_t i) {
        data.labels[i] = argmax(teacher.forward(data.inputs[i]));
    });
    return data;
}

// -- batch_evaluator ---------------------------------------------------------

batch_evaluator::batch_evaluator(const network& net,
                                 const teacher_dataset& data,
                                 unsigned threads)
    : batch_evaluator(bound_network(net, std::vector<layer_quant>(
                                             net.depth())), // the float net
                      data, threads)
{
}

batch_evaluator::batch_evaluator(bound_network base,
                                 const teacher_dataset& data,
                                 unsigned threads)
    : net_(base.net()), data_(data), threads_(threads),
      base_(std::move(base))
{
    const std::size_t depth = net_.depth();
    for (const std::size_t li : net_.weighted_layers()) {
        if (li > 0) {
            kept_.push_back(li - 1);
        }
    }
    if (depth > 0) {
        kept_.push_back(depth - 1); // the logits
    }
    resume_.resize(depth + 1);
    resume_[0] = {0, npos};
    std::size_t slot = 0;
    for (std::size_t p = 1; p <= depth; ++p) {
        resume_[p] = resume_[p - 1];
        if (slot < kept_.size() && kept_[slot] == p - 1) {
            resume_[p] = {p, slot++};
        }
    }
}

void batch_evaluator::set_base(std::vector<layer_quant> base)
{
    if (base.size() != net_.depth()) {
        throw std::invalid_argument(
            "batch_evaluator: base overlay size mismatch");
    }
    if (base == base_.overlay()) {
        return; // keep the cache
    }
    base_ = bound_network(base_, std::move(base));
    cache_built_ = false;
    acts_.clear();
    order_.clear();
}

void batch_evaluator::ensure_cache() const
{
    if (cache_built_) {
        return;
    }
    acts_.assign(data_.inputs.size(), {});
    parallel_for(data_.inputs.size(), threads_, [&](std::size_t i) {
        std::vector<tensor>& kept = acts_[i];
        kept.reserve(kept_.size()); // `x` below survives each push_back
        std::size_t first = 0;
        for (const std::size_t li : kept_) {
            const tensor& x = kept.empty() ? data_.inputs[i] : kept.back();
            kept.push_back(base_.forward_range(first, li + 1, x));
            first = li + 1;
        }
    });
    cache_built_ = true;
}

const tensor& batch_evaluator::resume_input(std::size_t i,
                                            resume_point r) const
{
    return r.slot == npos ? data_.inputs[i] : acts_[i][r.slot];
}

std::size_t batch_evaluator::suffix_start(
    const std::vector<layer_quant>& overlay) const
{
    const std::vector<layer_quant>& base = base_.overlay();
    std::size_t p = 0;
    while (p < base.size() && overlay[p] == base[p]) {
        ++p;
    }
    return p;
}

void batch_evaluator::check_overlay(
    const std::vector<layer_quant>& overlay) const
{
    if (data_.inputs.empty()) {
        throw std::invalid_argument("batch_evaluator: empty dataset");
    }
    if (overlay.size() != net_.depth()) {
        throw std::invalid_argument(
            "batch_evaluator: overlay size mismatch");
    }
}

bool batch_evaluator::agrees(std::size_t i, std::size_t p,
                             const bound_network& probe) const
{
    const resume_point r = resume_[p];
    const tensor& start = resume_input(i, r);
    const int pred = r.layer == net_.depth()
                         ? argmax(start)
                         : argmax(probe.forward_range(
                               r.layer, net_.depth(), start));
    return pred == data_.labels[i];
}

const std::vector<std::size_t>& batch_evaluator::probe_order() const
{
    if (!order_.empty()) {
        return order_;
    }
    ensure_cache();
    const std::size_t n = data_.inputs.size();
    std::vector<float> margin(n);
    for (std::size_t i = 0; i < n; ++i) {
        float top = -std::numeric_limits<float>::infinity();
        float second = top;
        for (const float v : acts_[i].back().flat()) {
            if (v > top) {
                second = top;
                top = v;
            } else if (v > second) {
                second = v;
            }
        }
        margin[i] = top - second;
    }
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                         return margin[a] < margin[b];
                     });
    return order_;
}

double batch_evaluator::accuracy(
    const std::vector<layer_quant>& overlay) const
{
    check_overlay(overlay);
    const std::size_t p = suffix_start(overlay);
    if (p > 0) {
        ensure_cache();
    }
    const bound_network probe(base_, overlay);
    std::vector<unsigned char> agree(data_.inputs.size(), 0);
    parallel_for(data_.inputs.size(), threads_, [&](std::size_t i) {
        agree[i] = agrees(i, p, probe) ? 1 : 0;
    });
    const std::size_t n =
        std::accumulate(agree.begin(), agree.end(), std::size_t{0});
    return static_cast<double>(n)
           / static_cast<double>(data_.inputs.size());
}

bool batch_evaluator::passes(const std::vector<layer_quant>& overlay,
                             double target) const
{
    check_overlay(overlay);
    const std::size_t n = data_.inputs.size();
    // The fewest misses that fail the probe: the first m whose accuracy
    // (n - m) / n, in accuracy()'s own double arithmetic, is not
    // >= target. (n - m) / n falls monotonically in m, so the scan stops
    // at the first failure; a NaN target gives 0 (every probe fails),
    // a target <= 0 gives n + 1 (every probe passes).
    std::size_t fail_at = 0;
    while (fail_at <= n
           && static_cast<double>(n - fail_at) / static_cast<double>(n)
                  >= target) {
        ++fail_at;
    }

    const std::size_t p = suffix_start(overlay);
    const std::vector<std::size_t>& order = probe_order();
    const bound_network probe(base_, overlay);
    // One input per worker per chunk; misses are counted between chunks.
    // The decision is exact, so it is the same at any worker count.
    const std::size_t chunk = resolve_threads(threads_, n);
    std::vector<unsigned char> miss(chunk, 0);
    std::size_t misses = 0;
    std::size_t begin = 0;
    // Undecided while the misses are below fail_at and an all-miss
    // remainder could still reach it.
    while (misses < fail_at && misses + (n - begin) >= fail_at) {
        const std::size_t count = std::min(chunk, n - begin);
        parallel_for(count, threads_, [&](std::size_t k) {
            miss[k] = agrees(order[begin + k], p, probe) ? 0 : 1;
        });
        misses += std::accumulate(
            miss.begin(), miss.begin() + static_cast<std::ptrdiff_t>(count),
            std::size_t{0});
        begin += count;
    }
    return misses < fail_at;
}

std::vector<layer_quant_requirement>
batch_evaluator::sweep(const quant_sweep_config& cfg) const
{
    std::vector<layer_quant> overlay(net_.depth());

    std::vector<layer_quant_requirement> out;
    for (const std::size_t li : net_.weighted_layers()) {
        layer_quant_requirement req;
        req.layer_index = li;
        req.layer_name = net_.at(li).name();

        // Weights: quantize only this layer's weights.
        req.min_weight_bits = cfg.max_bits;
        for (int bits = 1; bits <= cfg.max_bits; ++bits) {
            overlay[li] = layer_quant{.weight_bits = bits,
                                      .input_bits = 0,
                                      .compute = cfg.compute};
            if (passes(overlay, cfg.target_accuracy)) {
                req.min_weight_bits = bits;
                break;
            }
        }
        // Inputs: quantize only this layer's input feature map.
        req.min_input_bits = cfg.max_bits;
        for (int bits = 1; bits <= cfg.max_bits; ++bits) {
            overlay[li] = layer_quant{.weight_bits = 0,
                                      .input_bits = bits,
                                      .compute = cfg.compute};
            if (passes(overlay, cfg.target_accuracy)) {
                req.min_input_bits = bits;
                break;
            }
        }
        overlay[li] = layer_quant{};
        out.push_back(req);
    }
    return out;
}

std::vector<layer_quant_requirement>
batch_evaluator::refine(std::vector<layer_quant_requirement> reqs,
                        const quant_sweep_config& cfg) const
{
    for (int round = 0; round < cfg.max_bits; ++round) {
        if (passes(requirements_overlay(net_, reqs, cfg.compute),
                   cfg.target_accuracy)) {
            break;
        }
        bool changed = false;
        for (layer_quant_requirement& r : reqs) {
            if (r.min_weight_bits < cfg.max_bits) {
                ++r.min_weight_bits;
                changed = true;
            }
            if (r.min_input_bits < cfg.max_bits) {
                ++r.min_input_bits;
                changed = true;
            }
        }
        if (!changed) {
            break; // everything saturated at max_bits
        }
    }
    return reqs;
}

std::vector<layer_sparsity> batch_evaluator::sparsity() const
{
    if (data_.inputs.empty()) {
        throw std::invalid_argument("batch_evaluator: empty dataset");
    }
    for (const layer_quant& q : base_.overlay()) {
        if (!(q == layer_quant{})) {
            throw std::logic_error(
                "batch_evaluator::sparsity: needs the float base");
        }
    }
    const std::vector<std::size_t> weighted = net_.weighted_layers();
    std::vector<layer_sparsity> out(weighted.size());

    // Weight sparsity is data-independent.
    for (std::size_t k = 0; k < weighted.size(); ++k) {
        out[k].layer_name = net_.at(weighted[k]).name();
        const std::vector<float>* w = net_.at(weighted[k]).weights();
        std::size_t zeros = 0;
        for (const float v : *w) {
            zeros += (v == 0.0F);
        }
        out[k].weight_sparsity =
            static_cast<double>(zeros) / static_cast<double>(w->size());
    }

    // Input sparsity: average over the dataset of each weighted layer's
    // input tensor (the network input for the first layer, the previous
    // layer's output otherwise -- post-ReLU zeros dominate). The float
    // activations are exactly the evaluator's cached base run; the
    // reduction stays in input order, so the result is thread-invariant.
    ensure_cache();
    for (std::size_t i = 0; i < data_.inputs.size(); ++i) {
        for (std::size_t k = 0; k < weighted.size(); ++k) {
            out[k].input_sparsity +=
                resume_input(i, resume_[weighted[k]]).sparsity();
        }
    }
    for (layer_sparsity& s : out) {
        s.input_sparsity /= static_cast<double>(data_.inputs.size());
    }
    return out;
}

// -- free functions (thin wrappers over the evaluator / threaded probes) -----

double relative_accuracy(const network& net, const teacher_dataset& data,
                         const std::vector<layer_quant>& overlay,
                         unsigned threads)
{
    if (data.inputs.empty()) {
        throw std::invalid_argument("relative_accuracy: empty dataset");
    }
    const bound_network bound(net, overlay);
    std::vector<unsigned char> agree(data.inputs.size(), 0);
    parallel_for(data.inputs.size(), threads, [&](std::size_t i) {
        agree[i] =
            argmax(bound.forward(data.inputs[i])) == data.labels[i] ? 1 : 0;
    });
    const std::size_t n =
        std::accumulate(agree.begin(), agree.end(), std::size_t{0});
    return static_cast<double>(n)
           / static_cast<double>(data.inputs.size());
}

std::vector<layer_quant_requirement>
sweep_layer_precision(const network& net, const teacher_dataset& data,
                      const quant_sweep_config& cfg)
{
    const batch_evaluator eval(net, data, cfg.threads);
    return eval.sweep(cfg);
}

std::vector<layer_quant>
requirements_overlay(const network& net,
                     const std::vector<layer_quant_requirement>& req,
                     compute_mode compute)
{
    std::vector<layer_quant> overlay(net.depth());
    for (const layer_quant_requirement& r : req) {
        overlay.at(r.layer_index).weight_bits = r.min_weight_bits;
        overlay.at(r.layer_index).input_bits = r.min_input_bits;
        overlay.at(r.layer_index).compute = compute;
    }
    return overlay;
}

double requirements_accuracy(const network& net,
                             const std::vector<layer_quant_requirement>& req,
                             const teacher_dataset& data, unsigned threads,
                             compute_mode compute)
{
    return relative_accuracy(net, data,
                             requirements_overlay(net, req, compute),
                             threads);
}

std::vector<layer_quant_requirement>
refine_requirements(const network& net,
                    std::vector<layer_quant_requirement> reqs,
                    const teacher_dataset& data,
                    const quant_sweep_config& cfg)
{
    const batch_evaluator eval(net, data, cfg.threads);
    return eval.refine(std::move(reqs), cfg);
}

std::vector<layer_sparsity> measure_sparsity(const network& net,
                                             const teacher_dataset& data)
{
    const batch_evaluator eval(net, data);
    return eval.sparsity();
}

} // namespace dvafs
