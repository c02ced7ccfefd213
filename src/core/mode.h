// The public DVAFS operating-mode abstraction: a subword configuration plus
// per-lane precision, and the run-time adaptable parameters it unlocks.

#pragma once

#include "mult/subword.h"

#include <string>

namespace dvafs {

struct dvafs_mode {
    sw_mode subword = sw_mode::w1x16;
    int precision_bits = 16; // per-lane effective precision

    int n() const noexcept { return lane_count(subword); }
    int lane_width() const noexcept { return lane_bits(subword); }
    bool valid() const noexcept
    {
        return precision_bits >= 1 && precision_bits <= lane_width();
    }
    std::string to_string() const;
    bool operator==(const dvafs_mode&) const = default;
};

// The canonical mode for a precision requirement: the narrowest lane that
// holds `bits` (maximizing subword parallelism), as the paper's Sec. V
// per-layer policy does.
dvafs_mode mode_for_precision(int bits);

} // namespace dvafs
