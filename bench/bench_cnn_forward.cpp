// CNN inference hot-path benchmark: single-layer GEMM forward vs the
// naive reference loops, and the end-to-end quantization-sweep speedup
// of the memoized, threaded batch_evaluator over the pre-PR path (serial
// full reference forwards with per-call weight quantization).
//
// The layer probes are VGG16-S block1_1 (C = 3 first layer), block1_2
// (the costliest conv of the serve cascade: a 16-channel 56x56 plane),
// block4_1 (deep, 7x7) and AlexNet-S conv1 (stride 4) and fc6. Stride-1
// convs run the shifted-plane lowering of cnn/gemm.h (no im2col matrix)
// in f32 and im2col in int8, so their `int8_speedup` also carries
// im2col's cost; alex_s.conv1 packs with im2col on both engines. Each
// layer's weights are prepared (layer::prepare) before its timed loop, as
// a bound network prepares them once per plan, so the records time the
// kernels and not the preparation.
//
// The sweep comparison runs the *identical* probe sequence on both paths
// and cross-checks the resulting requirements; a mismatch exits 1 (the
// speedup would be meaningless). `--min-speedup <x>` turns the end-to-end
// sweep ratio into a gate (exit 3 below the floor; CI passes 10), and
// `--min-int8-speedup <x>` gates the true-integer engine's throughput
// against the float GEMM on the widest (deepest-reduction) layer (for
// the CI floor see .github/workflows/ci.yml). `--json <path>` writes
// the machine-readable records (README "Benchmark output"); every record
// carries the active host-SIMD backend in its "isa" field. `--isa <name>`
// forces a specific vec backend (exit 1 when unavailable); before any
// timing, all three GEMM datatypes (the float one as the panel GEMM and,
// at n == 1, the gemv) and the quantize kernel are
// cross-checked under every available backend against the scalar overlay
// -- exit 1 on any byte of disagreement. The layer table is followed by
// the `fake_quant.<shape>_ms` record: 8-bit fake quantization of the
// VGG16-S input.

#include "core/dvafs.h"

#include "cnn/gemm_int.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>

using namespace dvafs;

namespace {

// Pre-timing cross-backend check of the quantize kernel: fake-quantized
// floats and int32 codes over ragged lengths and several bit-widths must
// match the scalar overlay byte for byte under every available backend.
bool quantize_backends_identical()
{
    const vec::kernel_table& ref = *vec::scalar::table();
    pcg32 rng(98);
    bool ok = true;
    for (const std::size_t len : {1, 7, 8, 9, 17, 1000}) {
        std::vector<float> x(len);
        for (float& v : x) {
            v = static_cast<float>(rng.gaussian(0.0, 1.0));
        }
        for (const int bits : {2, 4, 8, 16}) {
            const double step = 2.5 / static_cast<double>(signed_max(bits));
            const double lo = static_cast<double>(signed_min(bits));
            const double hi = static_cast<double>(signed_max(bits));
            std::vector<float> fref(len);
            std::vector<std::int32_t> cref(len);
            ref.quantize_f32(x.data(), len, step, lo, hi, fref.data(),
                             nullptr);
            ref.quantize_f32(x.data(), len, step, lo, hi, nullptr,
                             cref.data());
            for (const vec::isa level : vec::available()) {
                const vec::kernel_table& t = *vec::table_for(level);
                std::vector<float> f(len);
                std::vector<std::int32_t> c(len);
                t.quantize_f32(x.data(), len, step, lo, hi, f.data(),
                               nullptr);
                t.quantize_f32(x.data(), len, step, lo, hi, nullptr,
                               c.data());
                if (std::memcmp(f.data(), fref.data(), len * sizeof(float))
                        != 0
                    || c != cref) {
                    std::cerr << "FAIL: vec backend " << vec::isa_name(level)
                              << " quantize kernel disagrees with the "
                                 "scalar overlay at length "
                              << len << ", " << bits << " bits\n";
                    ok = false;
                }
            }
        }
    }
    return ok;
}

// Pre-timing cross-backend check: float, int8 and int16 GEMMs over a few
// shapes (a full 8 x 24 float tile, full 4x16 int8 / 4x8 int16 tiles,
// ragged edges, the n == 1 fc shape the int8 gate measures) must produce
// byte-identical outputs under every available vec backend vs the scalar
// overlay. Restores the previously active backend before returning.
bool vec_backends_identical()
{
    struct shape {
        std::size_t m, k, n;
    };
    const std::vector<shape> shapes = {
        {8, 576, 1}, {4, 64, 16}, {5, 33, 19},
        {1, 7, 1},   {3, 66, 40}, {9, 27, 49}};
    pcg32 rng(99);
    const vec::isa restore = vec::active_isa();
    bool ok = true;
    for (const shape& sh : shapes) {
        std::vector<float> fa(sh.m * sh.k);
        std::vector<float> fb(sh.k * sh.n);
        std::vector<float> fbias(sh.m);
        std::vector<std::int8_t> a8(sh.m * sh.k);
        std::vector<std::int8_t> b8(sh.k * sh.n);
        std::vector<std::int32_t> bias32(sh.m);
        std::vector<std::int16_t> a16(sh.m * sh.k);
        std::vector<std::int16_t> b16(sh.k * sh.n);
        std::vector<std::int64_t> bias64(sh.m);
        for (std::size_t i = 0; i < sh.m * sh.k; ++i) {
            fa[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
            a8[i] = static_cast<std::int8_t>(rng.next_u64());
            a16[i] = static_cast<std::int16_t>(rng.next_u64());
        }
        for (std::size_t i = 0; i < sh.k * sh.n; ++i) {
            fb[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
            b8[i] = static_cast<std::int8_t>(rng.next_u64());
            b16[i] = static_cast<std::int16_t>(rng.next_u64());
        }
        for (std::size_t i = 0; i < sh.m; ++i) {
            fbias[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
            bias32[i] = static_cast<std::int32_t>(rng.next_u64() & 0xffff);
            bias64[i] = static_cast<std::int64_t>(rng.next_u64() & 0xffff);
        }
        std::vector<float> fref(sh.m * sh.n);
        std::vector<std::int32_t> ref32(sh.m * sh.n);
        std::vector<std::int64_t> ref64(sh.m * sh.n);
        const std::vector<double> panels =
            pack_panels(fa.data(), fbias.data(), sh.m, sh.k);
        vec::force_isa(vec::isa::scalar);
        gemm_blocked(panels.data(), fb.data(), fref.data(), sh.m, sh.k,
                     sh.n);
        gemm_s8(a8.data(), b8.data(), bias32.data(), ref32.data(), sh.m,
                sh.k, sh.n);
        gemm_s16(a16.data(), b16.data(), bias64.data(), ref64.data(),
                 sh.m, sh.k, sh.n);
        std::vector<float> fc(sh.m * sh.n);
        std::vector<std::int32_t> c32(sh.m * sh.n);
        std::vector<std::int64_t> c64(sh.m * sh.n);
        for (const vec::isa level : vec::available()) {
            vec::force_isa(level);
            gemm_blocked(panels.data(), fb.data(), fc.data(), sh.m, sh.k,
                         sh.n);
            std::vector<float> fv(sh.m);
            if (sh.n == 1) {
                gemv_f32(fa.data(), fb.data(), fbias.data(), fv.data(), sh.m,
                         sh.k);
            }
            gemm_s8(a8.data(), b8.data(), bias32.data(), c32.data(),
                    sh.m, sh.k, sh.n);
            gemm_s16(a16.data(), b16.data(), bias64.data(), c64.data(),
                     sh.m, sh.k, sh.n);
            const std::size_t out = sh.m * sh.n;
            if (std::memcmp(fc.data(), fref.data(), out * sizeof(float))
                    != 0
                || (sh.n == 1
                    && std::memcmp(fv.data(), fref.data(),
                                   out * sizeof(float))
                           != 0)
                || c32 != ref32 || c64 != ref64) {
                std::cerr << "FAIL: vec backend " << vec::isa_name(level)
                          << " GEMM disagrees with the scalar overlay at "
                          << sh.m << "x" << sh.k << "x" << sh.n << "\n";
                ok = false;
            }
        }
    }
    vec::force_isa(restore);
    return ok;
}

double seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

// -- single-layer forward: GEMM vs reference, int8 vs float GEMM -------------

// Returns the int8-over-float-GEMM speedup on the widest probed layer --
// the one with the deepest per-output reduction (largest GEMM k), where
// the integer engine's narrower arithmetic pays off structurally -- the
// `int8.widest_speedup` record that `--min-int8-speedup` gates: the true
// integer engine must not run slower than the float GEMM it replaces
// where the reduction is deepest. (Shallow-k first convs sit near parity:
// per-element requantization amortizes over k.)
double bench_layers(bench_reporter& report)
{
    print_banner(std::cout,
                 "single-layer forward: GEMM vs reference loops");
    const network vgg = make_vgg16_scaled({.seed = 2017});
    const network alex = make_alexnet_scaled({.seed = 2017});

    struct probe {
        const network* net;
        std::size_t layer;
        const char* label;
    };
    // First conv (large spatial extent), the widest full-size conv, a
    // deep conv (many channels) and the big fc of each topology family.
    const std::vector<probe> probes = {
        {&vgg, 0, "vgg_s.block1_1"},
        {&vgg, 2, "vgg_s.block1_2"},
        {&vgg, 17, "vgg_s.block4_1"},
        {&alex, 0, "alex_s.conv1"},
        {&alex, 12, "alex_s.fc6"},
    };

    ascii_table t({"layer", "shape", "MMACs", "ref[ms]", "gemm[ms]",
                   "speedup", "int8[ms]", "int8/gemm"});
    double widest_k = 0.0;
    double widest_speedup = 0.0;
    for (const probe& p : probes) {
        // Activation shape entering the probed layer.
        tensor_shape s = p.net->input_shape();
        for (std::size_t i = 0; i < p.layer; ++i) {
            s = p.net->at(i).out_shape(s);
        }
        const layer& l = p.net->at(p.layer);
        tensor in(s);
        pcg32 rng(7);
        for (float& v : in.flat()) {
            v = static_cast<float>(rng.uniform(0.0, 1.0));
        }
        const double mmacs = static_cast<double>(l.macs(s)) * 1e-6;
        // Repetitions sized so each side runs a few hundred ms.
        const int ref_reps = std::max(1, static_cast<int>(10.0 / mmacs));
        const int gemm_reps = ref_reps * 10;

        const layer_quant q{.weight_bits = 8, .input_bits = 8};
        volatile float sink = 0.0F; // keep the forwards observable
        auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < ref_reps; ++r) {
            sink = sink + l.reference_forward(in, q).flat()[0];
        }
        const double ref_ms = seconds_since(t0) * 1e3 / ref_reps;
        // Weights are prepared once, outside the timed loops, as a bound
        // network prepares them: the records time the kernels.
        const auto prepared = l.prepare(q);
        t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < gemm_reps; ++r) {
            sink = sink + l.run(in, q, prepared.get()).flat()[0];
        }
        const double gemm_ms = seconds_since(t0) * 1e3 / gemm_reps;

        // The true fixed-point engine at the same 8-bit operand grids:
        // int8 codes, int32 accumulation, one requantization per layer.
        const layer_quant qi{.weight_bits = 8, .input_bits = 8,
                             .compute = compute_mode::i8};
        const auto prepared_i8 = l.prepare(qi);
        t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < gemm_reps; ++r) {
            sink = sink + l.run(in, qi, prepared_i8.get()).flat()[0];
        }
        const double int8_ms = seconds_since(t0) * 1e3 / gemm_reps;
        const double int8_speedup = gemm_ms / int8_ms;
        // Reduction depth k = MACs per output element (c*kernel^2 for
        // conv, the input width for fc).
        const tensor_shape os = l.out_shape(s);
        const double out_elems = static_cast<double>(os.c)
                                 * static_cast<double>(os.h)
                                 * static_cast<double>(os.w);
        const double red_k = mmacs * 1e6 / out_elems;
        if (red_k > widest_k) {
            widest_k = red_k;
            widest_speedup = int8_speedup;
        }

        t.add_row({p.label, s.to_string(), fmt_fixed(mmacs, 2),
                   fmt_fixed(ref_ms, 3), fmt_fixed(gemm_ms, 3),
                   fmt_fixed(ref_ms / gemm_ms, 1) + "x",
                   fmt_fixed(int8_ms, 3),
                   fmt_fixed(int8_speedup, 2) + "x"});
        report.add(std::string(p.label) + ".reference_ms", ref_ms, "ms");
        report.add(std::string(p.label) + ".gemm_ms", gemm_ms, "ms");
        report.add(std::string(p.label) + ".speedup", ref_ms / gemm_ms,
                   "x");
        report.add(std::string(p.label) + ".int8_ms", int8_ms, "ms");
        report.add(std::string(p.label) + ".int8_speedup", int8_speedup,
                   "x");
    }
    t.print(std::cout);
    report.add("int8.widest_speedup", widest_speedup, "x");

    // The 8-bit input fake-quantization every f32 plan forward of the
    // first VGG16-S block runs (choose_quant's scan plus the vec quantize
    // kernel, in place on a fresh copy each rep).
    tensor x(vgg.input_shape());
    pcg32 rng(7);
    for (float& v : x.flat()) {
        v = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    tensor y = x;
    const int fq_reps = 2000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < fq_reps; ++r) {
        std::copy(x.flat().begin(), x.flat().end(), y.flat().begin());
        fake_quantize_inplace(y.flat(), 8);
    }
    const double fq_ms = seconds_since(t0) * 1e3 / fq_reps;
    std::cout << "  fake-quantize " << x.shape().to_string()
              << " (8 bits): " << fmt_fixed(fq_ms * 1e3, 2) << " us\n\n";
    report.add("fake_quant." + x.shape().to_string() + "_ms", fq_ms, "ms");
    return widest_speedup;
}

// -- end-to-end sweep: memoized batch_evaluator vs the pre-PR path -----------

// The pre-PR sweep: serial full reference forwards (naive conv/fc loops,
// weights re-quantized every call), no prefix memoization.
double naive_accuracy(const network& net, const teacher_dataset& data,
                      const std::vector<layer_quant>& overlay)
{
    std::size_t agree = 0;
    for (std::size_t i = 0; i < data.inputs.size(); ++i) {
        agree += argmax(net.reference_forward(data.inputs[i], overlay))
                 == data.labels[i];
    }
    return static_cast<double>(agree)
           / static_cast<double>(data.inputs.size());
}

std::vector<layer_quant_requirement>
naive_sweep(const network& net, const teacher_dataset& data,
            const quant_sweep_config& cfg)
{
    std::vector<layer_quant> overlay(net.depth());
    std::vector<layer_quant_requirement> out;
    for (const std::size_t li : net.weighted_layers()) {
        layer_quant_requirement req;
        req.layer_index = li;
        req.layer_name = net.at(li).name();
        req.min_weight_bits = cfg.max_bits;
        for (int bits = 1; bits <= cfg.max_bits; ++bits) {
            overlay[li] = layer_quant{.weight_bits = bits, .input_bits = 0};
            if (naive_accuracy(net, data, overlay)
                >= cfg.target_accuracy) {
                req.min_weight_bits = bits;
                break;
            }
        }
        req.min_input_bits = cfg.max_bits;
        for (int bits = 1; bits <= cfg.max_bits; ++bits) {
            overlay[li] = layer_quant{.weight_bits = 0, .input_bits = bits};
            if (naive_accuracy(net, data, overlay)
                >= cfg.target_accuracy) {
                req.min_input_bits = bits;
                break;
            }
        }
        overlay[li] = layer_quant{};
        out.push_back(req);
    }
    return out;
}

// Returns the measured speedup, or a negative value on a requirement
// mismatch.
double bench_sweep(const network& net, const quant_sweep_config& cfg,
                   bench_reporter& report)
{
    print_banner(std::cout,
                 "end-to-end sweep_layer_precision on " + net.name() + " ("
                     + std::to_string(cfg.images) + " images, max "
                     + std::to_string(cfg.max_bits) + " bits)");
    const teacher_dataset data = make_teacher_dataset(net, cfg);

    auto t0 = std::chrono::steady_clock::now();
    const auto naive = naive_sweep(net, data, cfg);
    const double naive_s = seconds_since(t0);

    // Evaluator construction (and its activation-cache build) belongs in
    // the timed region: the pre-PR path did not have that cost either.
    t0 = std::chrono::steady_clock::now();
    const auto fast = sweep_layer_precision(net, data, cfg);
    const double fast_s = seconds_since(t0);

    bool same = naive.size() == fast.size();
    for (std::size_t i = 0; same && i < naive.size(); ++i) {
        same = naive[i].layer_index == fast[i].layer_index
               && naive[i].min_weight_bits == fast[i].min_weight_bits
               && naive[i].min_input_bits == fast[i].min_input_bits;
    }
    const double speedup = naive_s / fast_s;
    std::cout << "  naive (reference forwards, serial): "
              << fmt_fixed(naive_s, 2) << " s\n"
              << "  memoized batch_evaluator:           "
              << fmt_fixed(fast_s, 2) << " s\n"
              << "  speedup " << fmt_fixed(speedup, 1)
              << "x, requirements " << (same ? "identical" : "MISMATCH")
              << "\n\n";
    const std::string prefix = net.name() + ".sweep";
    report.add(prefix + ".naive_s", naive_s, "s");
    report.add(prefix + ".evaluator_s", fast_s, "s");
    report.add(prefix + ".speedup", speedup, "x");
    return same ? speedup : -1.0;
}

} // namespace

int main(int argc, char** argv)
{
    bench_reporter report("cnn_forward", argc, argv,
                          {"min-speedup", "min-int8-speedup", "isa"});
    const double min_speedup =
        bench_flag_double(argc, argv, "min-speedup", 0.0);
    const double min_int8_speedup =
        bench_flag_double(argc, argv, "min-int8-speedup", 0.0);
    const std::string isa_flag = bench_flag_string(argc, argv, "isa", "");
    if (!isa_flag.empty() && !vec::force_isa(isa_flag)) {
        std::cerr << "bench_cnn_forward: --isa " << isa_flag
                  << " is not available on this host/build\n";
        return 1;
    }
    report.set_isa(vec::isa_name(vec::active_isa()));
    const bool pinned =
        !isa_flag.empty() || std::getenv("DVAFS_FORCE_ISA") != nullptr;
    std::cout << "host-SIMD backend: " << vec::isa_name(vec::active_isa())
              << (pinned ? " (forced)" : " (auto-detected)") << "\n";
    if (!vec_backends_identical() || !quantize_backends_identical()) {
        return 1;
    }

    const double int8_widest = bench_layers(report);

    quant_sweep_config lenet_cfg;
    lenet_cfg.images = 12;
    lenet_cfg.max_bits = 10;
    const double lenet_speedup =
        bench_sweep(make_lenet5({.seed = 2017}), lenet_cfg, report);

    // The largest zoo network with an executable sweep path (full VGG16 /
    // AlexNet only provide workload numbers; sweeps run the scaled
    // variants, as Fig. 6 does).
    quant_sweep_config vgg_cfg;
    vgg_cfg.images = 4;
    vgg_cfg.max_bits = 8;
    const double vgg_speedup =
        bench_sweep(make_vgg16_scaled({.seed = 2017}), vgg_cfg, report);

    if (lenet_speedup < 0.0 || vgg_speedup < 0.0) {
        std::cerr << "FAIL: memoized sweep disagrees with the naive "
                     "sweep\n";
        return 1;
    }
    if (!report.write()) {
        return 4;
    }
    if (min_speedup > 0.0 && vgg_speedup < min_speedup) {
        std::cerr << "FAIL: end-to-end sweep speedup "
                  << fmt_fixed(vgg_speedup, 1) << "x below the "
                  << fmt_fixed(min_speedup, 1) << "x floor\n";
        return 3;
    }
    if (min_int8_speedup > 0.0 && int8_widest < min_int8_speedup) {
        std::cerr << "FAIL: int8 engine at "
                  << fmt_fixed(int8_widest, 2)
                  << "x the float GEMM on the widest layer, below the "
                  << fmt_fixed(min_int8_speedup, 2) << "x floor\n";
        return 3;
    }
    return 0;
}
