// Streaming statistics accumulators used by the error-analysis and energy
// harnesses: mean/variance (Welford), RMSE against a reference, min/max.

#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace dvafs {

// Single-pass mean / variance / extrema accumulator.
class running_stats {
public:
    void add(double x) noexcept;

    std::uint64_t count() const noexcept { return n_; }
    double mean() const noexcept { return n_ ? mean_ : 0.0; }
    // Population variance; 0 with fewer than 2 samples.
    double variance() const noexcept
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
    }
    double stddev() const noexcept { return std::sqrt(variance()); }
    double min() const noexcept { return n_ ? min_ : 0.0; }
    double max() const noexcept { return n_ ? max_ : 0.0; }
    double sum() const noexcept { return sum_; }

    void reset() noexcept { *this = running_stats{}; }

private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

// Accumulates error metrics of an approximate value stream against an exact
// reference stream: RMSE, mean error (bias), maximum
// absolute error, and the error rate (fraction of non-exact results).
class error_stats {
public:
    void add(double exact, double approx) noexcept;

    std::uint64_t count() const noexcept { return n_; }
    double rmse() const noexcept
    {
        return n_ ? std::sqrt(sq_sum_ / static_cast<double>(n_)) : 0.0;
    }
    double mean_error() const noexcept
    {
        return n_ ? err_sum_ / static_cast<double>(n_) : 0.0;
    }
    double max_abs_error() const noexcept { return max_abs_; }
    double error_rate() const noexcept
    {
        return n_ ? static_cast<double>(nonzero_)
                        / static_cast<double>(n_)
                  : 0.0;
    }
    // RMSE normalized to the reference full-scale value (paper Fig. 3b uses
    // RMSE relative to the exact multiplier's output range).
    double rmse_relative(double full_scale) const noexcept
    {
        return full_scale > 0.0 ? rmse() / full_scale : 0.0;
    }

    void reset() noexcept { *this = error_stats{}; }

private:
    std::uint64_t n_ = 0;
    std::uint64_t nonzero_ = 0;
    double sq_sum_ = 0.0;
    double err_sum_ = 0.0;
    double max_abs_ = 0.0;
};

// Signal-to-noise ratio in dB of approx vs. exact streams (used by the DCT
// example: the paper's intro cites a 2 dB SNR loss at 4-bit DCT).
class snr_stats {
public:
    void add(double exact, double approx) noexcept
    {
        signal_ += exact * exact;
        const double e = exact - approx;
        noise_ += e * e;
        ++n_;
    }

    double snr_db() const noexcept
    {
        if (n_ == 0 || noise_ == 0.0) {
            return std::numeric_limits<double>::infinity();
        }
        if (signal_ == 0.0) {
            return -std::numeric_limits<double>::infinity();
        }
        return 10.0 * std::log10(signal_ / noise_);
    }

    void reset() noexcept { *this = snr_stats{}; }

private:
    std::uint64_t n_ = 0;
    double signal_ = 0.0;
    double noise_ = 0.0;
};

} // namespace dvafs
