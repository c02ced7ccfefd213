#include "simd/isa.h"

#include <gtest/gtest.h>

namespace dvafs {
namespace {

TEST(isa, builders_fill_fields)
{
    const instruction li = make_li(3, -42);
    EXPECT_EQ(li.op, opcode::li);
    EXPECT_EQ(li.rd, 3);
    EXPECT_EQ(li.imm, -42);

    const instruction mac = make_vmac(2, 5, 6);
    EXPECT_EQ(mac.op, opcode::vmac);
    EXPECT_EQ(mac.rd, 2);
    EXPECT_EQ(mac.ra, 5);
    EXPECT_EQ(mac.rb, 6);

    const instruction sm = make_setmode(sw_mode::w4x4);
    EXPECT_EQ(sm.op, opcode::setmode);
    EXPECT_EQ(sm.imm, 2);
}

TEST(isa, classification)
{
    EXPECT_TRUE(is_vector_op(opcode::vload));
    EXPECT_TRUE(is_vector_op(opcode::vmac));
    EXPECT_FALSE(is_vector_op(opcode::addi));
    EXPECT_FALSE(is_vector_op(opcode::halt));

    EXPECT_TRUE(is_arith_vector_op(opcode::vmul));
    EXPECT_TRUE(is_arith_vector_op(opcode::vadd));
    EXPECT_TRUE(is_arith_vector_op(opcode::vmac));
    EXPECT_FALSE(is_arith_vector_op(opcode::vload));
    EXPECT_FALSE(is_arith_vector_op(opcode::vsat));
}

TEST(isa, to_string_round_readable)
{
    EXPECT_EQ(make_li(1, 7).to_string(), "li r1, 7");
    EXPECT_EQ(make_vload(2, 3, 4).to_string(), "vload v2, r3, 4");
    EXPECT_EQ(make_vmac(0, 6, 1).to_string(), "vmac a0, v6, v1");
    EXPECT_EQ(make_bnez(3, -5).to_string(), "bnez r3, -5");
    EXPECT_EQ(make_halt().to_string(), "halt");
    EXPECT_EQ(make_vsat(7, 0, 4).to_string(), "vsat v7, a0, 4");
}

TEST(isa, opcode_names)
{
    EXPECT_STREQ(to_string(opcode::vbcast), "vbcast");
    EXPECT_STREQ(to_string(opcode::setmode), "setmode");
}

} // namespace
} // namespace dvafs
