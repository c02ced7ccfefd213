// Error-analysis harness for exact and approximate multipliers.
//
// Fig. 3b of the paper plots relative energy against RMSE for the DVAFS
// multiplier and four approximate-computing baselines. This harness samples
// operand pairs from a seeded uniform distribution, accumulates error
// statistics of a candidate multiplier against the exact product, and
// normalizes RMSE to the full-scale output (2^(2*(width-1))), matching the
// paper's dimensionless RMSE axis.

#pragma once

#include "util/rng.h"
#include "util/stats.h"

#include <cstdint>
#include <functional>

namespace dvafs {

// A functional multiplier: operands are signed (or unsigned) width-bit
// integers; the return value is the design's (possibly approximate) product.
using mult_fn = std::function<std::int64_t(std::int64_t, std::int64_t)>;

struct error_report {
    std::uint64_t samples = 0;
    double rmse = 0.0;          // absolute RMSE of the product
    double rmse_relative = 0.0; // RMSE / 2^(2*(width-1))
    double mean_error = 0.0;    // bias
    double max_abs_error = 0.0;
    double error_rate = 0.0;    // fraction of non-exact products
};

// Compares `candidate` against the exact product over `samples` operand
// pairs drawn uniformly from the signed (or unsigned) width-bit range.
error_report analyze_multiplier_error(const mult_fn& candidate, int width,
                                      bool is_signed, std::uint64_t samples,
                                      std::uint64_t seed = 1);

} // namespace dvafs
