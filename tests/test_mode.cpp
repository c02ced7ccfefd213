#include "core/mode.h"

#include <gtest/gtest.h>

namespace dvafs {
namespace {

TEST(dvafs_mode, basic_properties)
{
    const dvafs_mode m{sw_mode::w2x8, 6};
    EXPECT_EQ(m.n(), 2);
    EXPECT_EQ(m.lane_width(), 8);
    EXPECT_TRUE(m.valid());
    EXPECT_EQ(m.to_string(), "2x8@6b");
    const dvafs_mode full{sw_mode::w2x8, 8};
    EXPECT_EQ(full.to_string(), "2x8");
}

TEST(dvafs_mode, validity)
{
    EXPECT_FALSE((dvafs_mode{sw_mode::w4x4, 5}).valid());
    EXPECT_FALSE((dvafs_mode{sw_mode::w1x16, 0}).valid());
    EXPECT_TRUE((dvafs_mode{sw_mode::w1x16, 16}).valid());
}

TEST(mode_for_precision, narrowest_fitting_lane)
{
    EXPECT_EQ(mode_for_precision(1).subword, sw_mode::w4x4);
    EXPECT_EQ(mode_for_precision(4).subword, sw_mode::w4x4);
    EXPECT_EQ(mode_for_precision(5).subword, sw_mode::w2x8);
    EXPECT_EQ(mode_for_precision(8).subword, sw_mode::w2x8);
    EXPECT_EQ(mode_for_precision(9).subword, sw_mode::w1x16);
    EXPECT_EQ(mode_for_precision(16).subword, sw_mode::w1x16);
    EXPECT_EQ(mode_for_precision(7).precision_bits, 7);
    EXPECT_THROW((void)mode_for_precision(0), std::invalid_argument);
    EXPECT_THROW((void)mode_for_precision(17), std::invalid_argument);
}

} // namespace
} // namespace dvafs
