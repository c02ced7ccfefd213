// Banked vector data memory with a bit-width-aware access energy model.
//
// One 16-bit bank per SIMD lane; a vector access reads/writes SW consecutive
// word addresses, one per bank. Access energy follows
//     E_access = e_fixed + e_bit * active_bits
// per 16-bit word: the fixed part models row decode and wordline energy,
// the per-bit part models bitline/IO energy that scales with the number of
// *live* data bits. This term is what differentiates DAS (narrow words in
// full-width slots: fewer active bits per access) from DVAFS (N packed
// subwords per slot: same active bits but N words per access), reproducing
// Table II's memory column.

#pragma once

#include "energy/energy_ledger.h"

#include <cstdint>
#include <vector>

namespace dvafs {

struct memory_energy_params {
    double e_fixed_pj = 1.4;  // per 16-bit word access
    double e_bit_pj = 0.35;   // per active data bit
    double vdd = 1.1;         // memory supply (fixed in the SIMD processor)
    double vdd_nom = 1.1;
};

class banked_memory {
public:
    banked_memory(std::size_t words, int banks);

    std::uint16_t read(std::uint32_t addr, int active_bits);
    void write(std::uint32_t addr, std::uint16_t value, int active_bits);

    // Vector access helpers: SW consecutive addresses.
    std::vector<std::uint16_t> read_vector(std::uint32_t base,
                                           int active_bits);
    void write_vector(std::uint32_t base,
                      const std::vector<std::uint16_t>& values,
                      int active_bits);

    // Raw (energy-free) access for test setup and result checking.
    std::uint16_t peek(std::uint32_t addr) const;
    void poke(std::uint32_t addr, std::uint16_t value);

    std::size_t size() const noexcept { return data_.size(); }
    int banks() const noexcept { return banks_; }

    std::uint64_t accesses() const noexcept { return accesses_; }
    double energy_pj() const noexcept { return energy_pj_; }
    void set_energy_params(const memory_energy_params& p) noexcept
    {
        params_ = p;
    }
    void reset_stats() noexcept
    {
        accesses_ = 0;
        energy_pj_ = 0.0;
    }

private:
    void account(int active_bits);

    std::vector<std::uint16_t> data_;
    int banks_;
    memory_energy_params params_;
    std::uint64_t accesses_ = 0;
    double energy_pj_ = 0.0;
};

} // namespace dvafs
