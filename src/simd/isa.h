// Instruction set of the DVAFS-compatible SIMD RISC vector processor
// (paper Sec. III-B: a parametric-width vector machine built in an ASIP
// design tool, here reproduced as a cycle-level simulator).
//
// The machine has:
//   * 8 scalar registers r0..r7 (32 b; r0 reads as zero),
//   * 8 vector registers v0..v7 (SW lanes x 16 b packed subwords),
//   * 4 vector accumulators a0..a3 (SW lanes x 32 b),
//   * a banked data memory of 16-bit words (one bank per lane).
// Vector arithmetic operates lane-wise in the current subword mode
// (1x16 / 2x8 / 4x4), so one 16-bit lane slot carries N packed words.

#pragma once

#include "mult/subword.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dvafs {

enum class opcode : std::uint8_t {
    nop,
    halt,
    // scalar
    li,    // rd = imm
    addi,  // rd = ra + imm
    lw,    // rd = mem[ra + imm] (single 16-bit word, sign-extended)
    bnez,  // if (ra != 0) pc += imm
    // vector
    vload,  // vd = mem[ra + imm .. +SW)
    vstore, // mem[ra + imm ..) = vd
    vbcast, // vd lanes all = ra (packed per current mode)
    vadd,   // vd = va + vb   (lane-wise, wrapping)
    vmul,   // vd = lane products, truncated to lane width
    vmac,   // ad += va * vb  (lane-wise, 2x-width accumulate, saturating)
    vclr,   // ad = 0
    vsat,   // vd = saturate(ad >> imm) per lane
    setmode // switch subword mode: imm = 0 (1x16), 1 (2x8), 2 (4x4)
};

const char* to_string(opcode op) noexcept;

struct instruction {
    opcode op = opcode::nop;
    std::uint8_t rd = 0; // destination register index (r/v/a by opcode)
    std::uint8_t ra = 0;
    std::uint8_t rb = 0;
    std::int32_t imm = 0;

    std::string to_string() const;
};

using program = std::vector<instruction>;

// -- instruction builders (keep call sites readable) --------------------------
instruction make_nop();
instruction make_halt();
instruction make_li(int rd, std::int32_t imm);
instruction make_addi(int rd, int ra, std::int32_t imm);
instruction make_lw(int rd, int ra, std::int32_t imm);
instruction make_bnez(int ra, std::int32_t offset);
instruction make_vload(int vd, int ra, std::int32_t imm);
instruction make_vstore(int vd, int ra, std::int32_t imm);
instruction make_vbcast(int vd, int ra);
instruction make_vadd(int vd, int va, int vb);
instruction make_vmul(int vd, int va, int vb);
instruction make_vmac(int ad, int va, int vb);
instruction make_vclr(int ad);
instruction make_vsat(int vd, int ad, std::int32_t shift);
instruction make_setmode(sw_mode m);

// Instruction classification used by the energy model.
bool is_vector_op(opcode op) noexcept;
bool is_arith_vector_op(opcode op) noexcept; // vadd/vmul/vmac (as domain)

} // namespace dvafs
