// Cross-module integration tests: the full pipelines the benches exercise,
// pinned down as pass/fail invariants.

#include "core/dvafs.h"

#include <gtest/gtest.h>

namespace dvafs {
namespace {

TEST(integration, simd_conv_matches_cnn_conv1d_reference)
{
    // The SIMD processor executing the conv kernel must agree with a
    // plain C++ convolution over the same data, in a subword mode.
    simd_processor proc(8, 16384);
    domain_voltages dv;
    dv.mode = sw_mode::w2x8;
    dv.das_bits = 8;
    proc.set_operating_point(dv);
    conv_kernel_spec spec;
    spec.tiles = 8;
    spec.out_shift = 2;
    const conv_workload w =
        prepare_conv_workload(proc, spec, sw_mode::w2x8, 8, 5);
    proc.load_program(make_conv1d_program(spec, proc.sw()));
    proc.run();
    EXPECT_EQ(check_conv_outputs(proc, spec, sw_mode::w2x8, w), 0);
}

TEST(integration, multiplier_feeds_simd_energy_model)
{
    // Measured multiplier divisors installed into the SIMD energy model
    // change the as-domain energy in the expected direction.
    dvafs_multiplier mult(16);
    const kparam_extraction kx =
        extract_kparams(mult, tech_40nm_lp(), {.vectors = 300, .seed = 2});

    simd_energy_model with_measured;
    for (const k_factors& k : kx.table) {
        with_measured.activity_override[{sw_mode::w1x16, k.bits}] = k.k0;
    }
    const double div_measured =
        with_measured.activity_divisor(sw_mode::w1x16, 4);
    EXPECT_GT(div_measured, 3.0);
    EXPECT_NEAR(div_measured, k_for_bits(kx.table, 4).k0, 1e-12);
}

TEST(integration, quant_sweep_to_envision_plan)
{
    // Fig. 6 -> Table III pipeline on LeNet: sweep bits, measure sparsity,
    // plan on Envision, verify the layer-wise plan beats uniform 16 b.
    network net = make_lenet5({.seed = 8});
    envision_model model;
    precision_planner planner(model);
    quant_sweep_config cfg;
    cfg.images = 6;
    cfg.max_bits = 10;
    const network_plan plan = planner.plan(net, cfg);
    EXPECT_GT(plan.savings_factor, 1.2);
    EXPECT_GT(plan.tops_per_w,
              0.9 * model.evaluate([&] {
                             envision_mode m;
                             m.f_mhz = 200.0;
                             m.vdd = 1.03;
                             return m;
                         }())
                        .tops_per_w);
}

TEST(integration, controller_matches_kparam_voltages)
{
    static dvafs_controller ctrl(tech_40nm_lp(), 16, 500.0);
    const dvafs_operating_point op =
        ctrl.resolve(4, scaling_regime::dvafs);
    // The controller's solved voltage must match the extraction table's
    // k4 (both come from the same timing analysis).
    const k_factors& k4 = k_for_bits(ctrl.kparams().table, 4);
    EXPECT_NEAR(op.v_as, 1.1 / k4.k4, 1e-6);
}

TEST(integration, fig3a_shape_dvafs_beats_dvas_beats_das)
{
    // The headline Fig. 3a ordering measured end-to-end on the gate-level
    // multiplier with solved voltages, at every reduced precision.
    static dvafs_controller ctrl(tech_40nm_lp(), 16, 500.0);
    for (const int bits : {4, 8}) {
        const double das =
            ctrl.resolve(bits, scaling_regime::das).rel_energy_per_word;
        const double dvas =
            ctrl.resolve(bits, scaling_regime::dvas).rel_energy_per_word;
        const double dvafs =
            ctrl.resolve(bits, scaling_regime::dvafs).rel_energy_per_word;
        EXPECT_LT(dvas, das) << bits;
        EXPECT_LT(dvafs, dvas) << bits;
    }
}

TEST(integration, fig3b_dvafs_vs_truncation_crossover)
{
    // Fig. 3b: the programmable truncated multiplier [8] is cheaper near
    // full accuracy (no reconfiguration overhead) but DVAFS wins at low
    // precision thanks to voltage/frequency scaling.
    static dvafs_controller ctrl(tech_40nm_lp(), 16, 500.0);
    const tech_model& tech = tech_40nm_lp();

    truncated_multiplier trunc(16);
    pcg32 rng(3);
    const auto trunc_energy = [&](int t) {
        trunc.set_truncation(t);
        trunc.reset_stats();
        for (int i = 0; i < 300; ++i) {
            trunc.simulate(rng.range(-32768, 32767),
                           rng.range(-32768, 32767));
        }
        return tech_model::toggle_energy_fj(
            trunc.mean_switched_cap_ff(tech), tech.vdd_nom);
    };
    const double trunc_at_full = trunc_energy(0);
    const double dvafs_at_full_rel =
        ctrl.resolve(16, scaling_regime::dvafs).rel_energy_per_word;
    const double dvafs_abs_full = dvafs_at_full_rel
                                  * ctrl.energy_per_word_pj(ctrl.resolve(
                                      16, scaling_regime::das))
                                  * 1e3; // pJ -> fJ
    // Near full precision the plain design is cheaper.
    EXPECT_LT(trunc_at_full, dvafs_abs_full * 1.05);

    // At 4 bits DVAFS is far cheaper than truncation (which keeps V, f).
    const double trunc_at_4b = trunc_energy(12);
    const double dvafs_at_4b =
        ctrl.energy_per_word_pj(ctrl.resolve(4, scaling_regime::dvafs))
        * 1e3;
    EXPECT_LT(dvafs_at_4b, trunc_at_4b);
}

TEST(integration, dct_style_fixed_point_flow)
{
    // The intro's JPEG/DCT use case: an 8-point transform computed with
    // fixed-point multiplies stays close to the float reference at 8+
    // bits of precision.
    const int n = 8;
    std::vector<double> signal(n);
    pcg32 rng(11);
    for (double& v : signal) {
        v = rng.uniform(-1.0, 1.0);
    }
    snr_stats snr;
    // Q3.12 operands; the exact integer product carries 24 fraction bits.
    const double lsb = std::ldexp(1.0, -12);
    for (int k = 0; k < n; ++k) {
        double exact = 0.0;
        double approx = 0.0;
        for (int i = 0; i < n; ++i) {
            const double c =
                std::cos((2 * i + 1) * k * 3.14159265358979 / (2 * n));
            exact += signal[static_cast<std::size_t>(i)] * c;
            const std::int64_t fx = quantize_value(
                signal[static_cast<std::size_t>(i)], lsb, 16);
            const std::int64_t fc = quantize_value(c, lsb, 16);
            approx += std::ldexp(static_cast<double>(fx * fc), -24);
        }
        snr.add(exact, approx);
    }
    EXPECT_GT(snr.snr_db(), 40.0);
}

TEST(integration, umbrella_header_exports_everything_used_here)
{
    // Compile-time check by usage: a few types from each layer.
    netlist nl;
    (void)nl;
    const dvafs_mode m = mode_for_precision(6);
    EXPECT_EQ(m.subword, sw_mode::w2x8);
    const envision_calibration& cal = default_envision_calibration();
    EXPECT_GT(cal.total_nominal_mw(), 0.0);
    EXPECT_EQ(paper_table1().size(), 4U);
}

} // namespace
} // namespace dvafs
