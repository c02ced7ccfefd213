#include "simd/isa.h"

#include <cstdio>

namespace dvafs {

const char* to_string(opcode op) noexcept
{
    switch (op) {
    case opcode::nop: return "nop";
    case opcode::halt: return "halt";
    case opcode::li: return "li";
    case opcode::addi: return "addi";
    case opcode::lw: return "lw";
    case opcode::bnez: return "bnez";
    case opcode::vload: return "vload";
    case opcode::vstore: return "vstore";
    case opcode::vbcast: return "vbcast";
    case opcode::vadd: return "vadd";
    case opcode::vmul: return "vmul";
    case opcode::vmac: return "vmac";
    case opcode::vclr: return "vclr";
    case opcode::vsat: return "vsat";
    case opcode::setmode: return "setmode";
    }
    return "?";
}

std::string instruction::to_string() const
{
    char buf[80];
    switch (op) {
    case opcode::nop:
    case opcode::halt:
        std::snprintf(buf, sizeof buf, "%s", dvafs::to_string(op));
        break;
    case opcode::li:
        std::snprintf(buf, sizeof buf, "li r%d, %d", rd, imm);
        break;
    case opcode::addi:
        std::snprintf(buf, sizeof buf, "addi r%d, r%d, %d", rd, ra, imm);
        break;
    case opcode::lw:
        std::snprintf(buf, sizeof buf, "lw r%d, r%d, %d", rd, ra, imm);
        break;
    case opcode::bnez:
        std::snprintf(buf, sizeof buf, "bnez r%d, %d", ra, imm);
        break;
    case opcode::vload:
        std::snprintf(buf, sizeof buf, "vload v%d, r%d, %d", rd, ra, imm);
        break;
    case opcode::vstore:
        std::snprintf(buf, sizeof buf, "vstore v%d, r%d, %d", rd, ra, imm);
        break;
    case opcode::vbcast:
        std::snprintf(buf, sizeof buf, "vbcast v%d, r%d", rd, ra);
        break;
    case opcode::vadd:
    case opcode::vmul:
        std::snprintf(buf, sizeof buf, "%s v%d, v%d, v%d",
                      dvafs::to_string(op), rd, ra, rb);
        break;
    case opcode::vmac:
        std::snprintf(buf, sizeof buf, "vmac a%d, v%d, v%d", rd, ra, rb);
        break;
    case opcode::vclr:
        std::snprintf(buf, sizeof buf, "vclr a%d", rd);
        break;
    case opcode::vsat:
        std::snprintf(buf, sizeof buf, "vsat v%d, a%d, %d", rd, ra, imm);
        break;
    case opcode::setmode:
        std::snprintf(buf, sizeof buf, "setmode %d", imm);
        break;
    }
    return buf;
}

namespace {

instruction make(opcode op, int rd, int ra, int rb, std::int32_t imm)
{
    instruction i;
    i.op = op;
    i.rd = static_cast<std::uint8_t>(rd);
    i.ra = static_cast<std::uint8_t>(ra);
    i.rb = static_cast<std::uint8_t>(rb);
    i.imm = imm;
    return i;
}

} // namespace

instruction make_nop() { return make(opcode::nop, 0, 0, 0, 0); }
instruction make_halt() { return make(opcode::halt, 0, 0, 0, 0); }
instruction make_li(int rd, std::int32_t imm)
{
    return make(opcode::li, rd, 0, 0, imm);
}
instruction make_addi(int rd, int ra, std::int32_t imm)
{
    return make(opcode::addi, rd, ra, 0, imm);
}
instruction make_lw(int rd, int ra, std::int32_t imm)
{
    return make(opcode::lw, rd, ra, 0, imm);
}
instruction make_bnez(int ra, std::int32_t offset)
{
    return make(opcode::bnez, 0, ra, 0, offset);
}
instruction make_vload(int vd, int ra, std::int32_t imm)
{
    return make(opcode::vload, vd, ra, 0, imm);
}
instruction make_vstore(int vd, int ra, std::int32_t imm)
{
    return make(opcode::vstore, vd, ra, 0, imm);
}
instruction make_vbcast(int vd, int ra)
{
    return make(opcode::vbcast, vd, ra, 0, 0);
}
instruction make_vadd(int vd, int va, int vb)
{
    return make(opcode::vadd, vd, va, vb, 0);
}
instruction make_vmul(int vd, int va, int vb)
{
    return make(opcode::vmul, vd, va, vb, 0);
}
instruction make_vmac(int ad, int va, int vb)
{
    return make(opcode::vmac, ad, va, vb, 0);
}
instruction make_vclr(int ad) { return make(opcode::vclr, ad, 0, 0, 0); }
instruction make_vsat(int vd, int ad, std::int32_t shift)
{
    return make(opcode::vsat, vd, ad, 0, shift);
}
instruction make_setmode(sw_mode m)
{
    return make(opcode::setmode, 0, 0, 0, static_cast<std::int32_t>(m));
}

bool is_vector_op(opcode op) noexcept
{
    switch (op) {
    case opcode::vload:
    case opcode::vstore:
    case opcode::vbcast:
    case opcode::vadd:
    case opcode::vmul:
    case opcode::vmac:
    case opcode::vclr:
    case opcode::vsat:
        return true;
    default:
        return false;
    }
}

bool is_arith_vector_op(opcode op) noexcept
{
    return op == opcode::vadd || op == opcode::vmul || op == opcode::vmac;
}

} // namespace dvafs
