// Cycle-level simulator of the DVAFS-compatible SIMD RISC vector processor
// (paper Sec. III-B). Functional behaviour is bit-exact subword arithmetic;
// energy is accounted per executed instruction into the three power domains
// (memory / nas / as), which is exactly the decomposition behind the
// paper's Table II and Fig. 4.

#pragma once

#include "energy/energy_ledger.h"
#include "energy/power_model.h"
#include "simd/isa.h"
#include "simd/memory.h"
#include "simd/power_domains.h"

#include <array>
#include <cstdint>
#include <map>
#include <vector>

namespace dvafs {

// Per-component energies at nominal voltage, calibrated so that the SW = 8
// full-precision convolution workload reproduces the paper's Table II
// breakdown (31% mem / 46% nas / 23% as at 36 mW). See DESIGN.md §5.
struct simd_energy_model {
    // nas domain --------------------------------------------------------
    double e_fetch_decode_pj = 11.4; // fixed per cycle
    double e_ctrl_pj_per_lane = 1.9; // per-lane control, per cycle
    double e_scalar_pj = 2.0;        // scalar ALU/branch execution
    double e_vrf_pj_per_lane = 1.0;  // vector register file, per vector op
    // as domain ---------------------------------------------------------
    double e_mac_pj_per_lane = 5.2;  // full-precision MAC (mult + accum)
    double e_net_pj_per_lane = 1.0;  // operand network, x log2(SW/8)
    // Activity divisors per (mode, das_bits): defaults from paper Table I;
    // callers may install divisors measured on the gate-level multiplier.
    double activity_divisor(sw_mode mode, int das_bits) const;
    std::map<std::pair<sw_mode, int>, double> activity_override;
    // memory ------------------------------------------------------------
    memory_energy_params mem;
};

struct simd_stats {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t vector_macs = 0;   // vmac instructions executed
    std::uint64_t words_processed = 0; // MAC word-ops (lanes x subwords)
    std::map<opcode, std::uint64_t> mix;
    energy_ledger ledger;

    double power_mw(double f_mhz) const
    {
        return ledger.power_mw(cycles, f_mhz);
    }
    double energy_per_word_pj() const
    {
        return words_processed
                   ? ledger.total_pj()
                         / static_cast<double>(words_processed)
                   : 0.0;
    }
};

class simd_processor {
public:
    // `sw`: SIMD width (lanes); memory_words: data memory size.
    simd_processor(int sw, std::size_t memory_words,
                   simd_energy_model energy = {});

    int sw() const noexcept { return sw_; }
    banked_memory& memory() noexcept { return mem_; }
    const banked_memory& memory() const noexcept { return mem_; }

    // Operating point: voltages and mode (affects energy, not function
    // except for the subword mode).
    void set_operating_point(const domain_voltages& dv);
    const domain_voltages& operating_point() const noexcept { return dv_; }

    void load_program(program p);

    // Runs until halt (or max_cycles); returns accumulated stats.
    // Throws std::runtime_error on invalid PC or cycle overrun.
    const simd_stats& run(std::uint64_t max_cycles = 10'000'000);

    const simd_stats& stats() const noexcept { return stats_; }
    void reset_stats();

    // Architectural state access for tests.
    std::int32_t reg(int idx) const { return regs_.at(idx); }
    const std::vector<std::uint16_t>& vreg(int idx) const
    {
        return vregs_.at(idx);
    }

private:
    void execute(const instruction& ins);
    void account(const instruction& ins);
    int active_bits() const noexcept;

    int sw_;
    banked_memory mem_;
    simd_energy_model energy_;
    domain_voltages dv_;

    program prog_;
    std::int64_t pc_ = 0;
    bool halted_ = false;
    std::array<std::int32_t, 8> regs_{};
    std::vector<std::vector<std::uint16_t>> vregs_; // 8 x sw lanes
    std::vector<std::vector<std::uint32_t>> accs_;  // 4 x sw lanes (packed)
    simd_stats stats_;
};

} // namespace dvafs
