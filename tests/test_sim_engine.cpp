// The threaded sweep engine and batched simulation: agreement with the
// scalar reference oracle and determinism across worker counts.

#include "sim/engine.h"

#include "circuit/logic_sim.h"
#include "circuit/tech.h"
#include "energy/kparams.h"
#include "fixedpoint/bitops.h"
#include "mult/booth_wallace_mult.h"
#include "mult/dvafs_mult.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <vector>

namespace dvafs {
namespace {

TEST(simulate_batch, products_match_scalar_simulate)
{
    booth_wallace_multiplier scalar_m(12);
    booth_wallace_multiplier batch_m(12);
    pcg32 rng(31);
    const std::size_t n = 150; // forces a ragged final batch
    std::vector<std::int64_t> a(n);
    std::vector<std::int64_t> b(n);
    std::vector<std::int64_t> got(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = sign_extend(rng.next_u64(), 12);
        b[i] = sign_extend(rng.next_u64(), 12);
    }
    batch_m.simulate_batch(a.data(), b.data(), n, got.data());
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], scalar_m.simulate(a[i], b[i])) << "pair " << i;
        ASSERT_EQ(got[i], a[i] * b[i]);
    }
    // Identical stream on separate engines: identical activity accounting.
    EXPECT_EQ(batch_m.total_toggles(), scalar_m.total_toggles());
    EXPECT_EQ(batch_m.transitions(), scalar_m.transitions());
    const tech_model& tech = tech_40nm_lp();
    EXPECT_DOUBLE_EQ(batch_m.switched_capacitance_ff(tech),
                     scalar_m.switched_capacitance_ff(tech));
}

TEST(simulate_batch, dvafs_packed_batch_matches_scalar_all_modes)
{
    for (const sw_mode mode : all_sw_modes) {
        dvafs_multiplier scalar_m(8);
        dvafs_multiplier batch_m(8);
        scalar_m.set_mode(mode);
        batch_m.set_mode(mode);
        pcg32 rng(47);
        const std::size_t n = 130;
        std::vector<std::uint64_t> a(n);
        std::vector<std::uint64_t> b(n);
        std::vector<std::uint64_t> got(n);
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = rng.next_u64() & 0xff;
            b[i] = rng.next_u64() & 0xff;
        }
        batch_m.simulate_packed_batch(a.data(), b.data(), n, got.data());
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(got[i], scalar_m.simulate_packed(a[i], b[i]))
                << to_string(mode) << " pair " << i;
            ASSERT_EQ(got[i], batch_m.functional_packed(a[i], b[i]));
        }
        EXPECT_EQ(batch_m.total_toggles(), scalar_m.total_toggles())
            << to_string(mode);
    }
}

// The threaded batch path partitions a batch into contiguous 512-vector
// chunk ranges, each worker re-establishing the toggle carry by replaying
// its predecessor vector uncounted. Outputs and every statistic must be
// bit-identical to the serial path -- including across *consecutive*
// batches, where the owning executor adopts the final chunk's carry.
TEST(simulate_batch, bit_identical_across_thread_counts)
{
    booth_wallace_multiplier serial_m(10);
    booth_wallace_multiplier threaded_m(10);
    serial_m.set_batch_threads(1);
    threaded_m.set_batch_threads(4);
    pcg32 rng(77);
    const std::size_t n = 1300; // three 512-lane chunks per batch
    std::vector<std::int64_t> a(n);
    std::vector<std::int64_t> b(n);
    std::vector<std::int64_t> got_serial(n);
    std::vector<std::int64_t> got_threaded(n);
    for (int batch = 0; batch < 2; ++batch) {
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = sign_extend(rng.next_u64(), 10);
            b[i] = sign_extend(rng.next_u64(), 10);
        }
        serial_m.simulate_batch(a.data(), b.data(), n, got_serial.data());
        threaded_m.simulate_batch(a.data(), b.data(), n,
                                  got_threaded.data());
        ASSERT_EQ(got_serial, got_threaded) << "batch " << batch;
        EXPECT_EQ(threaded_m.total_toggles(), serial_m.total_toggles())
            << "batch " << batch;
        EXPECT_EQ(threaded_m.transitions(), serial_m.transitions())
            << "batch " << batch;
    }
    const tech_model& tech = tech_40nm_lp();
    EXPECT_EQ(threaded_m.switched_capacitance_ff(tech),
              serial_m.switched_capacitance_ff(tech));
}

TEST(sim_engine, results_independent_of_thread_count)
{
    const dvafs_multiplier& mult = *netlist_cache::global().dvafs(16);
    const tech_model& tech = tech_40nm_lp();
    const std::vector<operating_point_spec> specs = kparam_sweep_points(16);

    sim_engine_config c1;
    c1.threads = 1;
    c1.vectors = 256;
    sim_engine_config c4 = c1;
    c4.threads = 4;

    const sweep_report r1 = sim_engine(c1).run(mult, tech, specs);
    const sweep_report r4 = sim_engine(c4).run(mult, tech, specs);
    ASSERT_EQ(r1.points.size(), specs.size());
    ASSERT_EQ(r4.points.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(r1.points[i].toggles, r4.points[i].toggles);
        EXPECT_EQ(r1.points[i].vectors, r4.points[i].vectors);
        EXPECT_DOUBLE_EQ(r1.points[i].mean_cap_ff,
                         r4.points[i].mean_cap_ff);
        EXPECT_DOUBLE_EQ(r1.points[i].crit_path_ps,
                         r4.points[i].crit_path_ps);
        EXPECT_DOUBLE_EQ(r1.points[i].vdd, r4.points[i].vdd);
    }
}

TEST(sim_engine, matches_single_point_measure)
{
    const dvafs_multiplier& mult = *netlist_cache::global().dvafs(16);
    const tech_model& tech = tech_40nm_lp();
    sim_engine_config cfg;
    cfg.threads = 2;
    cfg.vectors = 200;
    const sim_engine engine(cfg);
    const std::vector<operating_point_spec> specs = kparam_sweep_points(16);
    const sweep_report rep = engine.run(mult, tech, specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const sim_point_result solo = engine.measure(mult, tech, specs[i]);
        EXPECT_EQ(rep.points[i].toggles, solo.toggles) << specs[i].label();
        EXPECT_DOUBLE_EQ(rep.points[i].mean_cap_ff, solo.mean_cap_ff);
    }
}

TEST(sim_engine, engine_activity_matches_scalar_extraction_loop)
{
    // Re-creates the scalar k-parameter measurement loop (warm-up, reset,
    // counted stream) with logic_sim + simulate_packed and checks the
    // engine's 64-lane measurement reproduces the mean switched
    // capacitance bit for bit.
    const tech_model& tech = tech_40nm_lp();
    sim_engine_config cfg;
    cfg.vectors = 300;
    cfg.seed = 5;
    const sim_engine engine(cfg);
    const dvafs_multiplier& shared = *netlist_cache::global().dvafs(16);

    for (const operating_point_spec& spec :
         {operating_point_spec{sw_mode::w1x16, 8, 0.0, 0.0},
          operating_point_spec{sw_mode::w4x4, 4, 0.0, 0.0}}) {
        dvafs_multiplier scalar_m(16);
        scalar_m.set_das_precision(16);
        scalar_m.set_mode(spec.mode);
        if (spec.mode == sw_mode::w1x16 && spec.keep_bits < 16) {
            scalar_m.set_das_precision(spec.keep_bits);
        }
        pcg32 rng(cfg.seed);
        const std::uint64_t mask = low_mask(16);
        const std::uint64_t wa = rng.next_u64() & mask;
        const std::uint64_t wb = rng.next_u64() & mask;
        scalar_m.simulate_packed(wa, wb);
        scalar_m.reset_stats();
        for (std::uint64_t i = 0; i < cfg.vectors; ++i) {
            const std::uint64_t a = rng.next_u64() & mask;
            const std::uint64_t b = rng.next_u64() & mask;
            scalar_m.simulate_packed(a, b);
        }
        const double scalar_cap = scalar_m.mean_switched_cap_ff(tech);

        const sim_point_result r = engine.measure(shared, tech, spec);
        EXPECT_DOUBLE_EQ(r.mean_cap_ff, scalar_cap) << spec.label();
        EXPECT_EQ(r.vectors, cfg.vectors);
    }
}

TEST(sim_engine, run_batch_matches_per_group_runs)
{
    const dvafs_multiplier& mult = *netlist_cache::global().dvafs(16);
    const tech_model& tech = tech_40nm_lp();
    sim_engine_config cfg;
    cfg.threads = 3;
    cfg.vectors = 200;
    const sim_engine engine(cfg);

    // Three groups of different sizes (one empty), all through one pool.
    const std::vector<std::vector<operating_point_spec>> groups = {
        kparam_sweep_points(16),
        {},
        {{sw_mode::w4x4, 4, 0.0, 0.0}, {sw_mode::w2x8, 8, 0.0, 0.0}},
    };
    const std::vector<sweep_report> batch =
        engine.run_batch(mult, tech, groups);
    ASSERT_EQ(batch.size(), groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const sweep_report solo = engine.run(mult, tech, groups[g]);
        ASSERT_EQ(batch[g].points.size(), groups[g].size());
        for (std::size_t i = 0; i < groups[g].size(); ++i) {
            EXPECT_EQ(batch[g].points[i].toggles, solo.points[i].toggles)
                << groups[g][i].label();
            EXPECT_DOUBLE_EQ(batch[g].points[i].mean_cap_ff,
                             solo.points[i].mean_cap_ff);
            EXPECT_DOUBLE_EQ(batch[g].points[i].crit_path_ps,
                             solo.points[i].crit_path_ps);
        }
    }
}

TEST(sim_engine, run_batch_independent_of_thread_count)
{
    const dvafs_multiplier& mult = *netlist_cache::global().dvafs(16);
    const tech_model& tech = tech_40nm_lp();
    const std::vector<std::vector<operating_point_spec>> groups = {
        kparam_sweep_points(16),
        {{sw_mode::w1x16, 8, 0.9, 250.0}},
    };
    sim_engine_config c1;
    c1.threads = 1;
    c1.vectors = 128;
    sim_engine_config c5 = c1;
    c5.threads = 5;
    const auto r1 = sim_engine(c1).run_batch(mult, tech, groups);
    const auto r5 = sim_engine(c5).run_batch(mult, tech, groups);
    ASSERT_EQ(r1.size(), r5.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (std::size_t i = 0; i < groups[g].size(); ++i) {
            EXPECT_EQ(r1[g].points[i].toggles, r5[g].points[i].toggles);
            EXPECT_DOUBLE_EQ(r1[g].points[i].mean_cap_ff,
                             r5[g].points[i].mean_cap_ff);
            EXPECT_DOUBLE_EQ(r1[g].points[i].vdd, r5[g].points[i].vdd);
        }
    }
}

TEST(sim_engine, run_batch_propagates_errors)
{
    const dvafs_multiplier& mult = *netlist_cache::global().dvafs(16);
    sim_engine_config cfg;
    cfg.vectors = 16;
    const sim_engine engine(cfg);
    // keep_bits beyond the lane width must surface, not vanish in a pool.
    const std::vector<std::vector<operating_point_spec>> groups = {
        {{sw_mode::w4x4, 9, 0.0, 0.0}},
    };
    EXPECT_THROW((void)engine.run_batch(mult, tech_40nm_lp(), groups),
                 std::invalid_argument);
}

TEST(sim_engine, netlist_cache_shares_structures)
{
    const auto a = netlist_cache::global().dvafs(16);
    const auto b = netlist_cache::global().dvafs(16);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), netlist_cache::global().dvafs(8).get());
}

TEST(sweep_grid, kparam_points_cover_table1)
{
    const auto pts = kparam_sweep_points(16);
    ASSERT_EQ(pts.size(), 6U); // 4 DAS precisions + 2x8 + 4x4
    EXPECT_EQ(pts[0].keep_bits, 4);
    EXPECT_EQ(pts[3].keep_bits, 16);
    EXPECT_EQ(pts[4].mode, sw_mode::w2x8);
    EXPECT_EQ(pts[5].mode, sw_mode::w4x4);
}

TEST(kparams, extraction_independent_of_thread_count)
{
    const dvafs_multiplier& mult = *netlist_cache::global().dvafs(16);
    kparam_extraction_config c1{.vectors = 200, .seed = 7, .threads = 1};
    kparam_extraction_config c3 = c1;
    c3.threads = 3;
    const kparam_extraction k1 = extract_kparams(mult, tech_40nm_lp(), c1);
    const kparam_extraction k3 = extract_kparams(mult, tech_40nm_lp(), c3);
    ASSERT_EQ(k1.table.size(), k3.table.size());
    for (std::size_t i = 0; i < k1.table.size(); ++i) {
        EXPECT_DOUBLE_EQ(k1.table[i].k0, k3.table[i].k0);
        EXPECT_DOUBLE_EQ(k1.table[i].k3, k3.table[i].k3);
        EXPECT_DOUBLE_EQ(k1.table[i].k4, k3.table[i].k4);
    }
}

} // namespace
} // namespace dvafs
