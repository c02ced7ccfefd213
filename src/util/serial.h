// Minimal byte-level (de)serialization for the on-disk cache blobs.
//
// Fixed little-endian layouts, no framing, no reflection. byte_writer and
// byte_reader share one field vocabulary -- the writer's calls take values,
// the reader's same-named calls fill references -- so each cache kind
// (compiled schedules, mode frontiers, measurement states, teacher sweeps)
// states its layout once, as a walk `[](auto& ar, auto& x) { ... }` that
// encode_blob runs over a byte_writer and decode_blob over a byte_reader.
// A blob is a u32 payload version followed by that walk. Doubles travel as
// raw IEEE-754 bit patterns, so a round trip is bit-exact -- the property
// every "warm result equals cold result" check in tests/test_disk_store.cpp
// leans on. byte_reader throws serial_error on any overrun, malformed
// length or out-of-range enum byte; decode_blob turns that, a version
// mismatch or trailing bytes into "entry absent, re-measure".

#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace dvafs {

class serial_error : public std::runtime_error {
public:
    explicit serial_error(const std::string& what)
        : std::runtime_error("serial: " + what)
    {
    }
};

// Element walks shared by both directions (the vec_* fields).
inline constexpr auto u32_field = [](auto& ar, auto& x) { ar.u32(x); };
inline constexpr auto u64_field = [](auto& ar, auto& x) { ar.u64(x); };
inline constexpr auto f64_field = [](auto& ar, auto& x) { ar.f64(x); };

class byte_writer {
public:
    void u8(std::uint8_t v) { buf_.push_back(v); }

    void u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i) {
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        }
    }

    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        }
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void flag(bool v) { u8(v ? 1 : 0); }

    // One byte; `max` only matters to the reader.
    template <class E>
    void enum8(E e, E /*max*/)
    {
        u8(static_cast<std::uint8_t>(e));
    }

    void str(const std::string& s)
    {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void bytes_u8(const std::vector<std::uint8_t>& v)
    {
        u64(v.size());
        buf_.insert(buf_.end(), v.begin(), v.end());
    }

    // A u64 count, then walk(*this, element) for each element.
    template <class T, class Walk>
    void seq(const std::vector<T>& v, Walk walk)
    {
        u64(v.size());
        for (const T& x : v) {
            walk(*this, x);
        }
    }

    void vec_u32(const std::vector<std::uint32_t>& v) { seq(v, u32_field); }
    void vec_u64(const std::vector<std::uint64_t>& v) { seq(v, u64_field); }
    void vec_f64(const std::vector<double>& v) { seq(v, f64_field); }

    const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
    std::vector<std::uint8_t> buf_;
};

class byte_reader {
public:
    explicit byte_reader(const std::vector<std::uint8_t>& buf) noexcept
        : buf_(buf)
    {
    }

    std::uint8_t u8()
    {
        need(1);
        return buf_[pos_++];
    }

    std::uint32_t u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= static_cast<std::uint32_t>(buf_[pos_ + i]) << (8 * i);
        }
        pos_ += 4;
        return v;
    }

    std::uint64_t u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(buf_[pos_ + i]) << (8 * i);
        }
        pos_ += 8;
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double f64() { return std::bit_cast<double>(u64()); }

    std::string str()
    {
        const std::size_t n = len();
        std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
        pos_ += n;
        return s;
    }

    std::vector<std::uint8_t> bytes_u8()
    {
        const std::size_t n = len();
        const auto at = buf_.begin() + static_cast<std::ptrdiff_t>(pos_);
        std::vector<std::uint8_t> v(at, at + static_cast<std::ptrdiff_t>(n));
        pos_ += n;
        return v;
    }

    // The walk vocabulary: same names as byte_writer, filling references.
    template <class T>
    void u32(T& v)
    {
        v = static_cast<T>(u32());
    }

    template <class T>
    void u64(T& v)
    {
        v = static_cast<T>(u64());
    }

    template <class T>
    void i64(T& v)
    {
        v = static_cast<T>(i64());
    }

    void f64(double& v) { v = f64(); }
    void flag(bool& v) { v = u8() != 0; }
    void str(std::string& s) { s = str(); }
    void bytes_u8(std::vector<std::uint8_t>& v) { v = bytes_u8(); }

    template <class E>
    void enum8(E& e, E max)
    {
        const std::uint8_t b = u8();
        if (b > static_cast<std::uint8_t>(max)) {
            throw serial_error("enum byte out of range");
        }
        e = static_cast<E>(b);
    }

    // Elements are appended as they are read, so a corrupt count overruns
    // and throws before it allocates more than the bytes actually present.
    template <class T, class Walk>
    void seq(std::vector<T>& v, Walk walk)
    {
        const std::uint64_t n = u64();
        v.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            walk(*this, v.emplace_back());
        }
    }

    void vec_u32(std::vector<std::uint32_t>& v) { seq(v, u32_field); }
    void vec_u64(std::vector<std::uint64_t>& v) { seq(v, u64_field); }
    void vec_f64(std::vector<double>& v) { seq(v, f64_field); }

    bool done() const noexcept { return pos_ == buf_.size(); }

private:
    void need(std::size_t n) const
    {
        if (buf_.size() - pos_ < n) {
            throw serial_error("truncated buffer");
        }
    }

    // A byte-length prefix, bounded by the bytes actually left so a
    // corrupt length cannot drive a multi-GB allocation.
    std::size_t len()
    {
        const std::uint64_t n = u64();
        if (n > buf_.size() - pos_) {
            throw serial_error("length exceeds buffer");
        }
        return static_cast<std::size_t>(n);
    }

    const std::vector<std::uint8_t>& buf_;
    std::size_t pos_ = 0;
};

// A payload: `version`, then walk(writer, x).
template <class T, class Walk>
std::vector<std::uint8_t> encode_blob(std::uint32_t version, const T& x,
                                      Walk walk)
{
    byte_writer w;
    w.u32(version);
    walk(w, x);
    return w.take();
}

// The inverse of encode_blob, filling `x`. False on another version, a
// malformed or truncated field, or trailing bytes; `x` may then be partly
// filled. Semantic checks of the decoded record stay with the caller.
template <class T, class Walk>
bool decode_blob(const std::vector<std::uint8_t>& blob, std::uint32_t version,
                 T& x, Walk walk)
{
    try {
        byte_reader r(blob);
        if (r.u32() != version) {
            return false;
        }
        walk(r, x);
        return r.done();
    } catch (const serial_error&) {
        return false;
    }
}

} // namespace dvafs
