// Property-based sweeps across the multiplier family: algebraic identities
// that must hold for every exact design, in every width and mode, plus
// cross-implementation equivalences.

#include "mult/array_mult.h"
#include "mult/booth_wallace_mult.h"
#include "mult/dvafs_mult.h"
#include "mult/wallace_mult.h"

#include "util/rng.h"

#include <gtest/gtest.h>

#include <memory>
#include <ostream>

namespace dvafs {
namespace {

// -- exact signed multipliers: shared algebraic properties --------------------

struct signed_mult_case {
    const char* name;
    int width;
    std::unique_ptr<structural_multiplier> (*make)(int);
};

// Stable test names: the design name rather than gtest's byte dump, which
// includes the pointer values and moves with address randomization.
void PrintTo(const signed_mult_case& c, std::ostream* os)
{
    *os << c.name;
}

std::unique_ptr<structural_multiplier> make_wallace(int w)
{
    return std::make_unique<wallace_multiplier>(w);
}
std::unique_ptr<structural_multiplier> make_booth_wallace(int w)
{
    return std::make_unique<booth_wallace_multiplier>(w);
}
std::unique_ptr<structural_multiplier> make_dvafs(int w)
{
    return std::make_unique<dvafs_multiplier>(w);
}

class signed_mult_properties
    : public ::testing::TestWithParam<signed_mult_case> {
protected:
    void SetUp() override { m_ = GetParam().make(GetParam().width); }
    std::unique_ptr<structural_multiplier> m_;
};

TEST_P(signed_mult_properties, commutativity)
{
    pcg32 rng(101);
    const int w = m_->width();
    for (int i = 0; i < 150; ++i) {
        const std::int64_t a = rng.range(signed_min(w), signed_max(w));
        const std::int64_t b = rng.range(signed_min(w), signed_max(w));
        EXPECT_EQ(m_->simulate(a, b), m_->simulate(b, a))
            << GetParam().name << " " << a << "," << b;
    }
}

TEST_P(signed_mult_properties, identity_and_zero)
{
    pcg32 rng(103);
    const int w = m_->width();
    for (int i = 0; i < 100; ++i) {
        const std::int64_t a = rng.range(signed_min(w), signed_max(w));
        EXPECT_EQ(m_->simulate(a, 1), a);
        EXPECT_EQ(m_->simulate(1, a), a);
        EXPECT_EQ(m_->simulate(a, 0), 0);
    }
}

TEST_P(signed_mult_properties, negation_symmetry)
{
    pcg32 rng(105);
    const int w = m_->width();
    for (int i = 0; i < 100; ++i) {
        // Avoid the asymmetric minimum (-min not representable).
        const std::int64_t a =
            rng.range(signed_min(w) + 1, signed_max(w));
        const std::int64_t b =
            rng.range(signed_min(w) + 1, signed_max(w));
        EXPECT_EQ(m_->simulate(-a, b), -m_->simulate(a, b));
        EXPECT_EQ(m_->simulate(-a, -b), m_->simulate(a, b));
    }
}

TEST_P(signed_mult_properties, doubling_is_shift)
{
    pcg32 rng(107);
    const int w = m_->width();
    for (int i = 0; i < 100; ++i) {
        const std::int64_t a =
            rng.range(signed_min(w) / 2 + 1, signed_max(w) / 2);
        const std::int64_t b = rng.range(signed_min(w), signed_max(w));
        EXPECT_EQ(m_->simulate(2 * a, b), 2 * m_->simulate(a, b));
    }
}

INSTANTIATE_TEST_SUITE_P(
    designs, signed_mult_properties,
    ::testing::Values(signed_mult_case{"wallace6", 6, &make_wallace},
                      signed_mult_case{"wallace16", 16, &make_wallace},
                      signed_mult_case{"booth_wallace6", 6,
                                       &make_booth_wallace},
                      signed_mult_case{"booth_wallace16", 16,
                                       &make_booth_wallace},
                      signed_mult_case{"dvafs8", 8, &make_dvafs},
                      signed_mult_case{"dvafs16", 16, &make_dvafs}),
    [](const auto& info) { return std::string(info.param.name); });

// -- cross-implementation equivalence ------------------------------------------

TEST(mult_equivalence, three_signed_designs_agree)
{
    wallace_multiplier wm(10);
    booth_wallace_multiplier bw(10);
    dvafs_multiplier dv(12); // nearest DVAFS-legal width
    pcg32 rng(109);
    for (int i = 0; i < 300; ++i) {
        const std::int64_t a = rng.range(-512, 511);
        const std::int64_t b = rng.range(-512, 511);
        const std::int64_t want = a * b;
        EXPECT_EQ(wm.simulate(a, b), want);
        EXPECT_EQ(bw.simulate(a, b), want);
        EXPECT_EQ(dv.simulate(a, b), want);
    }
}

TEST(mult_equivalence, unsigned_array_matches_positive_wallace)
{
    array_multiplier am(7);
    wallace_multiplier wm(8); // positive 7-bit values fit signed 8-bit
    pcg32 rng(111);
    for (int i = 0; i < 300; ++i) {
        const std::int64_t a = rng.range(0, 127);
        const std::int64_t b = rng.range(0, 127);
        EXPECT_EQ(am.simulate(a, b), wm.simulate(a, b));
    }
}

// -- DVAFS-specific cross-mode properties --------------------------------------

TEST(dvafs_properties, das_equals_pretruncated_full_multiply)
{
    // DAS precision p must equal truncating both operands and multiplying
    // at full precision -- on the same netlist.
    dvafs_multiplier m(16);
    pcg32 rng(113);
    for (const int keep : {12, 8, 4}) {
        for (int i = 0; i < 200; ++i) {
            const std::int64_t a = rng.range(-32768, 32767);
            const std::int64_t b = rng.range(-32768, 32767);
            m.set_das_precision(keep);
            const std::int64_t das = m.simulate(a, b);
            m.set_das_precision(16);
            const std::int64_t full =
                m.simulate(truncate_lsbs(a, 16, keep),
                           truncate_lsbs(b, 16, keep));
            EXPECT_EQ(das, full) << "keep=" << keep;
        }
    }
}

TEST(dvafs_properties, subword_lanes_match_narrow_full_multiplier)
{
    // Each 8-bit lane of the 2x8 mode must behave exactly like a standalone
    // 8-bit signed multiplier (the width-8 DVAFS design in 1x mode).
    dvafs_multiplier wide(16);
    dvafs_multiplier narrow(8);
    wide.set_mode(sw_mode::w2x8);
    pcg32 rng(115);
    for (int i = 0; i < 300; ++i) {
        const auto a0 = static_cast<std::int32_t>(rng.range(-128, 127));
        const auto a1 = static_cast<std::int32_t>(rng.range(-128, 127));
        const auto b0 = static_cast<std::int32_t>(rng.range(-128, 127));
        const auto b1 = static_cast<std::int32_t>(rng.range(-128, 127));
        const std::uint64_t packed = wide.simulate_packed(
            pack_lanes({a0, a1}, sw_mode::w2x8),
            pack_lanes({b0, b1}, sw_mode::w2x8));
        const auto lanes = unpack_products(
            static_cast<std::uint32_t>(packed), sw_mode::w2x8);
        EXPECT_EQ(lanes[0], narrow.simulate(a0, b0));
        EXPECT_EQ(lanes[1], narrow.simulate(a1, b1));
    }
}

TEST(dvafs_properties, mode_switch_roundtrip_preserves_function)
{
    // Arbitrary interleaving of mode switches must not corrupt results
    // (no hidden state in the netlist).
    dvafs_multiplier m(16);
    pcg32 rng(117);
    for (int i = 0; i < 200; ++i) {
        const sw_mode mode = all_sw_modes[rng.bounded(3)];
        m.set_mode(mode);
        const std::uint64_t a = rng.next_u32() & 0xffff;
        const std::uint64_t b = rng.next_u32() & 0xffff;
        EXPECT_EQ(m.simulate_packed(a, b), m.functional_packed(a, b))
            << to_string(mode);
    }
}

TEST(dvafs_properties, activity_seed_independence)
{
    // Mean switched capacitance is a physical property: two different
    // random streams must agree within a few percent.
    const tech_model& t = tech_40nm_lp();
    dvafs_multiplier m(16);
    const auto measure = [&](std::uint64_t seed) {
        pcg32 rng(seed);
        m.simulate_packed(rng.next_u32() & 0xffff,
                          rng.next_u32() & 0xffff);
        m.reset_stats();
        for (int i = 0; i < 1500; ++i) {
            m.simulate_packed(rng.next_u32() & 0xffff,
                              rng.next_u32() & 0xffff);
        }
        return m.mean_switched_cap_ff(t);
    };
    const double c1 = measure(1);
    const double c2 = measure(999);
    EXPECT_NEAR(c1 / c2, 1.0, 0.05);
}

} // namespace
} // namespace dvafs
