#include "util/stats.h"

#include <algorithm>

namespace dvafs {

void running_stats::add(double x) noexcept
{
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void error_stats::add(double exact, double approx) noexcept
{
    ++n_;
    const double e = approx - exact;
    if (e != 0.0) {
        ++nonzero_;
    }
    sq_sum_ += e * e;
    err_sum_ += e;
    max_abs_ = std::max(max_abs_, std::abs(e));
}

} // namespace dvafs
