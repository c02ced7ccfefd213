#include "core/mode.h"

#include <stdexcept>

namespace dvafs {

std::string dvafs_mode::to_string() const
{
    std::string s = dvafs::to_string(subword);
    if (precision_bits != lane_width()) {
        s += "@" + std::to_string(precision_bits) + "b";
    }
    return s;
}

dvafs_mode mode_for_precision(int bits)
{
    if (bits < 1 || bits > 16) {
        throw std::invalid_argument("mode_for_precision: bits in [1,16]");
    }
    dvafs_mode m;
    if (bits <= 4) {
        m.subword = sw_mode::w4x4;
    } else if (bits <= 8) {
        m.subword = sw_mode::w2x8;
    } else {
        m.subword = sw_mode::w1x16;
    }
    m.precision_bits = bits;
    return m;
}

} // namespace dvafs
