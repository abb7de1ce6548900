// Log-bucketed latency histogram (HdrHistogram-style, power-of-two buckets
// with linear sub-buckets). Single-writer per instance; merge to aggregate.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>

namespace lfrc::util {

/// Records values in [1, 2^62] ns with ~6% relative bucket error.
class latency_histogram {
  public:
    static constexpr int sub_bits = 4;                       // 16 linear sub-buckets
    static constexpr int num_buckets = 62 * (1 << sub_bits);

    void record(std::uint64_t value_ns) noexcept {
        ++counts_[bucket_index(value_ns)];
        ++total_;
        if (value_ns > max_) max_ = value_ns;
        sum_ += value_ns;
    }

    void merge(const latency_histogram& other) noexcept {
        for (int i = 0; i < num_buckets; ++i) counts_[i] += other.counts_[i];
        total_ += other.total_;
        sum_ += other.sum_;
        if (other.max_ > max_) max_ = other.max_;
    }

    std::uint64_t count() const noexcept { return total_; }
    std::uint64_t max() const noexcept { return max_; }
    double mean() const noexcept {
        return total_ ? static_cast<double>(sum_) / static_cast<double>(total_) : 0.0;
    }

    /// Smallest bucket upper bound such that >= q of samples fall below it,
    /// clamped to max(): the top sample's bucket bound can exceed every
    /// sample recorded in it.
    std::uint64_t percentile(double q) const noexcept {
        if (total_ == 0) return 0;
        const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total_));
        std::uint64_t seen = 0;
        for (int i = 0; i < num_buckets; ++i) {
            seen += counts_[i];
            if (seen > target) return std::min(bucket_upper_bound(i), max_);
        }
        return max_;
    }

    void reset() noexcept {
        counts_.fill(0);
        total_ = 0;
        sum_ = 0;
        max_ = 0;
    }

    static int bucket_index(std::uint64_t v) noexcept {
        if (v < (1ULL << sub_bits)) return static_cast<int>(v);
        const int msb = 63 - std::countl_zero(v);
        const int shift = msb - sub_bits;
        const auto sub = static_cast<int>((v >> shift) & ((1 << sub_bits) - 1));
        return (msb - sub_bits + 1) * (1 << sub_bits) + sub;
    }

    static std::uint64_t bucket_upper_bound(int index) noexcept {
        const int exp = index >> sub_bits;
        const int sub = index & ((1 << sub_bits) - 1);
        if (exp == 0) return static_cast<std::uint64_t>(sub);
        const int shift = exp - 1;
        return ((1ULL << sub_bits) + static_cast<std::uint64_t>(sub) + 1) << shift;
    }

  private:
    std::array<std::uint64_t, num_buckets> counts_{};
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

}  // namespace lfrc::util
