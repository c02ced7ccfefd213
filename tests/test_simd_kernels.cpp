#include "simd/kernels.h"

#include "mult/dvafs_mult.h"

#include <gtest/gtest.h>

#include <ostream>

namespace dvafs {
namespace {

struct kernel_case {
    sw_mode mode;
    int das_bits;
};

// Stable test names: "1x16@8b" rather than gtest's byte dump, which
// includes the struct's uninitialised padding.
void PrintTo(const kernel_case& kc, std::ostream* os)
{
    *os << to_string(kc.mode) << "@" << kc.das_bits << "b";
}

class conv_kernel_test : public ::testing::TestWithParam<kernel_case> {};

TEST_P(conv_kernel_test, outputs_match_reference)
{
    const kernel_case kc = GetParam();
    simd_processor proc(8, 16384);
    domain_voltages dv;
    dv.mode = kc.mode;
    dv.das_bits = kc.das_bits;
    proc.set_operating_point(dv);

    conv_kernel_spec spec;
    spec.tiles = 16;
    spec.out_shift = 2;
    const conv_workload w =
        prepare_conv_workload(proc, spec, kc.mode, kc.das_bits, 77);
    proc.load_program(make_conv1d_program(spec, proc.sw()));
    proc.run();
    EXPECT_EQ(check_conv_outputs(proc, spec, kc.mode, w), 0);
}

INSTANTIATE_TEST_SUITE_P(
    modes, conv_kernel_test,
    ::testing::Values(kernel_case{sw_mode::w1x16, 16},
                      kernel_case{sw_mode::w1x16, 8},
                      kernel_case{sw_mode::w1x16, 4},
                      kernel_case{sw_mode::w2x8, 8},
                      kernel_case{sw_mode::w2x8, 4},
                      kernel_case{sw_mode::w4x4, 4},
                      kernel_case{sw_mode::w4x4, 2}));

TEST(conv_kernel, mac_count_matches_spec)
{
    simd_processor proc(8, 16384);
    conv_kernel_spec spec;
    spec.tiles = 10;
    prepare_conv_workload(proc, spec, sw_mode::w1x16, 16);
    proc.load_program(make_conv1d_program(spec, proc.sw()));
    const simd_stats& st = proc.run();
    EXPECT_EQ(st.vector_macs,
              static_cast<std::uint64_t>(spec.tiles * spec.taps));
    EXPECT_EQ(st.words_processed,
              static_cast<std::uint64_t>(spec.tiles * spec.taps * 8));
}

TEST(conv_kernel, instruction_mix_is_mac_heavy)
{
    simd_processor proc(8, 16384);
    conv_kernel_spec spec;
    spec.tiles = 32;
    prepare_conv_workload(proc, spec, sw_mode::w1x16, 16);
    proc.load_program(make_conv1d_program(spec, proc.sw()));
    const simd_stats& st = proc.run();
    const double mac_share =
        static_cast<double>(st.mix.at(opcode::vmac))
        / static_cast<double>(st.instructions);
    EXPECT_GT(mac_share, 0.2);
    EXPECT_LT(mac_share, 0.5);
}

TEST(conv_kernel, dvafs_uses_fewer_cycles_per_word)
{
    const auto cycles_per_word = [](sw_mode mode, int das) {
        simd_processor proc(8, 16384);
        domain_voltages dv;
        dv.mode = mode;
        dv.das_bits = das;
        proc.set_operating_point(dv);
        conv_kernel_spec spec;
        spec.tiles = 16;
        prepare_conv_workload(proc, spec, mode, das);
        proc.load_program(make_conv1d_program(spec, proc.sw()));
        const simd_stats& st = proc.run();
        return static_cast<double>(st.cycles)
               / static_cast<double>(st.words_processed);
    };
    // Packed subwords: 4x the words per vmac, same cycle count.
    EXPECT_NEAR(cycles_per_word(sw_mode::w1x16, 16) / 4.0,
                cycles_per_word(sw_mode::w4x4, 4), 0.05);
}

TEST(conv_kernel, rejects_too_many_taps)
{
    conv_kernel_spec spec;
    spec.taps = 6;
    EXPECT_THROW((void)make_conv1d_program(spec, 8), std::invalid_argument);
}

TEST(conv_kernel, workload_respects_das_contract)
{
    simd_processor proc(4, 16384);
    conv_kernel_spec spec;
    spec.tiles = 4;
    const conv_workload w =
        prepare_conv_workload(proc, spec, sw_mode::w1x16, 8);
    // All generated inputs/weights must have their low 8 bits zero.
    for (const std::int32_t v : w.inputs) {
        EXPECT_EQ(v & 0xff, 0);
    }
    for (const std::int32_t v : w.weights) {
        EXPECT_EQ(v & 0xff, 0);
    }
}

TEST(conv_kernel, table2_energy_ordering)
{
    // The Fig. 4 ordering on the same workload: full precision DAS is the
    // most expensive per word; DVAS 4b cheaper; DVAFS 4x4 cheapest.
    dvafs_multiplier mult(16);
    const tech_model& tech = tech_40nm_lp();
    const auto energy_per_word = [&](scaling_regime reg, sw_mode mode,
                                     int das) {
        simd_processor proc(8, 16384);
        proc.set_operating_point(
            make_operating_point(reg, mode, das, mult, tech));
        conv_kernel_spec spec;
        spec.tiles = 24;
        prepare_conv_workload(proc, spec, mode, das);
        proc.load_program(make_conv1d_program(spec, proc.sw()));
        return proc.run().energy_per_word_pj();
    };
    const double e16 =
        energy_per_word(scaling_regime::das, sw_mode::w1x16, 16);
    const double das4 =
        energy_per_word(scaling_regime::das, sw_mode::w1x16, 4);
    const double dvas4 =
        energy_per_word(scaling_regime::dvas, sw_mode::w1x16, 4);
    const double dvafs4 =
        energy_per_word(scaling_regime::dvafs, sw_mode::w4x4, 4);
    EXPECT_LT(das4, e16);
    EXPECT_LT(dvas4, das4);
    EXPECT_LT(dvafs4, dvas4);
    // Paper Sec. III-B: up to ~85% reduction at 4x4b.
    EXPECT_LT(dvafs4 / e16, 0.3);
}

} // namespace
} // namespace dvafs
