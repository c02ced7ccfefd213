#include "mult/error_analysis.h"

#include "fixedpoint/bitops.h"

#include <cmath>
#include <stdexcept>

namespace dvafs {

error_report analyze_multiplier_error(const mult_fn& candidate, int width,
                                      bool is_signed, std::uint64_t samples,
                                      std::uint64_t seed)
{
    if (width < 2 || width > 31) {
        throw std::invalid_argument("analyze_multiplier_error: bad width");
    }
    pcg32 rng(seed);
    error_stats es;
    for (std::uint64_t i = 0; i < samples; ++i) {
        std::int64_t a = 0;
        std::int64_t b = 0;
        if (is_signed) {
            a = sign_extend(rng.next_u64(), width);
            b = sign_extend(rng.next_u64(), width);
        } else {
            a = static_cast<std::int64_t>(rng.next_u64() & low_mask(width));
            b = static_cast<std::int64_t>(rng.next_u64() & low_mask(width));
        }
        es.add(static_cast<double>(a * b),
               static_cast<double>(candidate(a, b)));
    }
    error_report rep;
    rep.samples = es.count();
    rep.rmse = es.rmse();
    rep.rmse_relative = es.rmse() / std::pow(2.0, 2.0 * (width - 1));
    rep.mean_error = es.mean_error();
    rep.max_abs_error = es.max_abs_error();
    rep.error_rate = es.error_rate();
    return rep;
}

} // namespace dvafs
