#include "mult/multiplier.h"

#include "fixedpoint/bitops.h"
#include "util/parallel.h"

#include <algorithm>
#include <stdexcept>

namespace dvafs {

void structural_multiplier::finalize()
{
    sim_ = std::make_unique<logic_sim>(nl_);
    // The generic schedule is shared through the content-keyed cache, so
    // repeated constructions of the same design (common in tests and
    // benches) compile the netlist once per process.
    batch_sched_ = compiled_netlist_cache::global().get(nl_);
    wide_ = std::make_unique<compiled_sim>(batch_sched_);
}

void structural_multiplier::input_vector_into(std::int64_t a, std::int64_t b,
                                              std::vector<bool>& v) const
{
    v.assign(nl_.inputs().size(), false);
    const std::uint64_t ab = to_bits(a, width_);
    const std::uint64_t bb = to_bits(b, width_);
    // Input creation order in every subclass: a bits LSB-first, then b bits.
    for (int i = 0; i < width_; ++i) {
        v[static_cast<std::size_t>(i)] = bit_of(ab, i) != 0;
        v[static_cast<std::size_t>(width_ + i)] = bit_of(bb, i) != 0;
    }
}

std::int64_t structural_multiplier::simulate(std::int64_t a, std::int64_t b)
{
    if (!sim_) {
        throw std::logic_error("structural_multiplier: not finalized");
    }
    drive(a, b);
    const std::uint64_t raw = sim_->read_bus(out_bus_);
    const int out_width = static_cast<int>(out_bus_.size());
    return signed_ ? sign_extend(raw, out_width)
                   : static_cast<std::int64_t>(raw);
}

void structural_multiplier::simulate_batch(const std::int64_t* a,
                                           const std::int64_t* b,
                                           std::size_t n, std::int64_t* out)
{
    if (!wide_) {
        throw std::logic_error("structural_multiplier: not finalized");
    }
    constexpr int blocks = compiled_sim::lane_words;
    constexpr int lanes = compiled_sim::lane_capacity;
    const std::size_t n_in = nl_.inputs().size();
    const int out_width = static_cast<int>(out_bus_.size());

    // One worker's serial walk over vectors [first, first + span) through
    // `sim`. The per-lane stimulus buffer is reused across the whole range
    // (input_vector_into), not allocated per vector.
    const auto run_range = [&](compiled_sim& sim, std::size_t first,
                               std::size_t span) {
        std::vector<std::uint64_t> words(n_in * blocks);
        std::vector<bool> v;
        for (std::size_t done = first; done < first + span;) {
            const int count = static_cast<int>(
                std::min<std::size_t>(lanes, first + span - done));
            std::fill(words.begin(), words.end(), 0);
            for (int lane = 0; lane < count; ++lane) {
                input_vector_into(a[done + lane], b[done + lane], v);
                const std::uint64_t bit = 1ULL << (lane & 63);
                const std::size_t block = static_cast<std::size_t>(lane)
                                          >> 6;
                for (std::size_t i = 0; i < n_in; ++i) {
                    if (v[i]) {
                        words[i * blocks + block] |= bit;
                    }
                }
            }
            sim.apply(words, count);
            if (out != nullptr) {
                for (int lane = 0; lane < count; ++lane) {
                    const std::uint64_t raw = sim.read_bus(out_bus_, lane);
                    out[done + lane] =
                        signed_ ? sign_extend(raw, out_width)
                                : static_cast<std::int64_t>(raw);
                }
            }
            done += static_cast<std::size_t>(count);
        }
    };

    const std::size_t chunks = (n + lanes - 1) / lanes;
    const unsigned workers = resolve_threads(batch_threads_, chunks);
    if (workers <= 1) {
        run_range(*wide_, 0, n);
        return;
    }

    // Contiguous chunk ranges per worker. Worker 0 continues on the member
    // executor (so the toggle carry from the previous batch is exactly the
    // serial path's); each extra worker leases a pooled executor over the
    // same schedule and replays its range's predecessor vector uncounted
    // to establish the carry -- the same warm-up contract the sweep engine
    // uses. Toggle counts depend only on the vector sequence, never on the
    // chunking (the lane-shift contract), so the partition is invisible in
    // the merged statistics.
    const std::size_t base = chunks / workers;
    const std::size_t rem = chunks % workers;
    std::vector<std::size_t> first(workers + 1, 0);
    for (unsigned t = 0; t < workers; ++t) {
        const std::size_t take = base + (t < rem ? 1 : 0);
        first[t + 1] = std::min(n, first[t] + take * lanes);
    }
    first[workers] = n;

    std::vector<compiled_sim_pool::lease> leases(workers);
    for (unsigned t = 1; t < workers; ++t) {
        leases[t] = compiled_sim_pool::global().acquire(batch_sched_);
    }
    parallel_for(workers, workers, [&](std::size_t t) {
        compiled_sim& sim = t == 0 ? *wide_ : *leases[t];
        if (t != 0) {
            // Warm-up: the predecessor vector, uncounted.
            std::vector<std::uint64_t> words(n_in * blocks, 0);
            std::vector<bool> v;
            input_vector_into(a[first[t] - 1], b[first[t] - 1], v);
            for (std::size_t i = 0; i < n_in; ++i) {
                if (v[i]) {
                    words[i * blocks] |= 1ULL;
                }
            }
            sim.apply(words, 1);
            sim.reset_stats();
        }
        run_range(sim, first[t], first[t + 1] - first[t]);
    });

    // Fold the extra workers' integer statistics into the member executor
    // (order-immune sums) and take the final range's last-vector state so
    // the next batch carries on exactly as a serial run would.
    for (unsigned t = 1; t < workers; ++t) {
        wide_->merge_stats(*leases[t]);
    }
    wide_->adopt_carry(*leases[workers - 1]);
}

std::int64_t structural_multiplier::functional(std::int64_t a,
                                               std::int64_t b) const
{
    return a * b;
}

double structural_multiplier::mean_switched_cap_ff(const tech_model& t) const
{
    const std::uint64_t n = transitions();
    return n ? switched_capacitance_ff(t) / static_cast<double>(n) : 0.0;
}

double structural_multiplier::critical_path_ps(const tech_model& t,
                                               double vdd) const
{
    const timing_analyzer sta(nl_, t);
    return sta.analyze(vdd).critical_path_ps;
}

} // namespace dvafs
