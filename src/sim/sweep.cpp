#include "sim/sweep.h"

#include <stdexcept>

namespace dvafs {

std::string operating_point_spec::label() const
{
    std::string s = to_string(mode);
    s += "@" + std::to_string(keep_bits) + "b";
    if (vdd > 0.0) {
        // Two decimals, zero-padded: 1.05 -> "1.05V", 0.8 -> "0.80V".
        const int mv = static_cast<int>(vdd * 1000.0 + 0.5);
        s += " " + std::to_string(mv / 1000) + "."
             + std::to_string(mv / 100 % 10)
             + std::to_string(mv / 10 % 10) + "V";
    }
    if (f_mhz > 0.0) {
        s += " " + std::to_string(static_cast<int>(f_mhz + 0.5)) + "MHz";
    }
    return s;
}

bool operator==(const operating_point_spec& a,
                const operating_point_spec& b) noexcept
{
    return a.mode == b.mode && a.keep_bits == b.keep_bits && a.vdd == b.vdd
           && a.f_mhz == b.f_mhz;
}

std::vector<operating_point_spec> kparam_sweep_points(int width)
{
    if (width < 8 || width % 4 != 0) {
        throw std::invalid_argument("kparam_sweep_points: bad width");
    }
    std::vector<operating_point_spec> pts;
    const int q = width / 4;
    for (int keep = q; keep <= width; keep += q) {
        pts.push_back({sw_mode::w1x16, keep, 0.0, 0.0});
    }
    for (const sw_mode m : all_sw_modes) {
        if (m == sw_mode::w1x16) {
            continue; // already covered by the keep == width row above
        }
        pts.push_back({m, width / lane_count(m), 0.0, 0.0});
    }
    return pts;
}

} // namespace dvafs
