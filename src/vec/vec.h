// Host SIMD shim: per-ISA vocabularies, each kernel written once, runtime
// dispatch.
//
// NOT the paper's SIMD. src/simd/ models the *hardware* SIMD processor the
// paper evaluates (subword-parallel MACs at scaled precision); src/vec/ is
// purely about making this simulator fast on the machine it runs on. The
// two never meet: vec changes wall-clock, never results.
//
// The layout follows the simdops/cardioid "null.hpp" pattern. Each x86
// overlay header (ops_avx512.h, ops_avx2.h) defines only a vocabulary --
// the native double vector and its lane count W, a tile row budget, lane
// masks, widening float loads and narrowing stores, fma and the other
// arithmetic, a float gather, the u64 ops of the toggle kernel and the
// int8 widening multiply-add -- plus, in ops_avx2.h, the three bodies no
// other ISA has (64x64 bit transpose, int8 4x16 tile, int16 dot).
// kernels_body.h writes the vector kernels once against that vocabulary
// (the toggle kernel, the f32 8 x 24 tile and row-vectorized matrix-vector
// kernel, the quantizer, the int8 dot); ops_scalar.h's plain loops are the
// reference and complete whatever an overlay leaves undefined; ops_neon.h
// keeps direct NEON definitions of the toggle kernel and int8 dot. Each
// backend translation unit compiles this stack under its own namespace
// and its own -m<isa> flags (per-source CMake options -- the ISA-specific
// code never leaks into baseline TUs, so the binary stays runnable on a
// baseline host; scripts/check_vec_symbols.py checks the x86 objects).
//
// Contract: every backend is bit-identical to the scalar reference.
// Integer kernels are exact, so any evaluation order is fine; the float
// kernels reproduce the reference's rounding sequence per output element
// (double accumulation, k ascending, one rounding per multiply-add step:
// the reference multiplies and adds, the vector body issues one explicit
// FMA, which cnn/gemm.h shows is exact for float products; the build sets
// -ffp-contract=off so the compiler never fuses on its own -- and for the
// quantizer one IEEE divide, floor/ceil, clamp and multiply in double, all
// exactly rounded in every ISA). tests/test_vec.cpp enforces this
// differentially; the throughput benches re-check it on their own
// workloads before timing.
//
// Dispatch: active() returns the best table whose ISA the running CPU
// supports, overridable via the DVAFS_FORCE_ISA environment variable
// ("scalar", "neon", "avx2", "avx512") or force_isa() (the benches'
// --isa flag). Forcing an unavailable ISA from the environment warns and
// falls back to the best available one; force_isa() returns false.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dvafs::vec {

// ISA levels in preference order (higher wins in best-available pick).
enum class isa : int { scalar = 0, neon = 1, avx2 = 2, avx512 = 3 };

// Words per net in the gate-run executor: 512 lanes, the compiled
// simulator's width (circuit/compiled_sim.h asserts they agree).
inline constexpr int gate_words = 8;

// One kind-homogeneous gate run over the compiled schedule's SoA arrays
// (see circuit/compiled_sim.h). `values` is the dense value array viewed
// as raw words, gate_words words per net; gate i reads fanin blocks
// in0/in1/in2[i] and writes block i, accumulating the fused toggle
// popcount into toggles[i] and the final-lane carry into last[i].
struct gate_run_args {
    int kind = 0; // static_cast<int>(gate_kind), never input/constant
    const std::uint32_t* in0 = nullptr;
    const std::uint32_t* in1 = nullptr;
    const std::uint32_t* in2 = nullptr;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint64_t* values = nullptr;         // net_count * gate_words
    std::uint64_t* toggles = nullptr;        // per dense net
    std::uint8_t* last = nullptr;            // per dense net
    const std::uint64_t* toggle_mask = nullptr; // gate_words words
    int last_word = 0;
    int last_bit = 0;
};

// One backend's kernel set. Function pointers rather than virtuals: the
// table is a static const object per backend TU and dispatch is one atomic
// pointer load.
struct kernel_table {
    const char* name = nullptr; // "scalar" / "neon" / "avx2" / "avx512"
    int level = 0;              // static_cast<int>(isa)

    // The toggle kernel: popcount((cur ^ ((cur << 1) | carry)) & mask)
    // across n words with the bit-63 carry chained word to word;
    // carry_in (0/1) enters bit 0 of word 0.
    std::uint64_t (*shift_transitions)(const std::uint64_t* cur,
                                       const std::uint64_t* mask, int n,
                                       std::uint64_t carry_in);
    // In-place 64x64 bit-matrix transpose (fixedpoint/bitops.h semantics).
    void (*transpose64)(std::uint64_t x[64]);
    // Gate-run executor for the compiled sim (gate_words per net).
    void (*exec_gates)(const gate_run_args& run);
    // Blocked GEMMs, C = bias + A(m x k) * B(k x n). Float keeps the
    // cnn/gemm.h accumulation contract: gemm_f32 reads A and bias as
    // pack_panels panels and B(r, j) at b[boff[r] + j] (b[r * n + j] when
    // boff is null); gemv_f32 is n == 1 on a row-major A, k < 2^26.
    // Integer kernels read a dense B and are exact (int8 under the
    // k <= 66571 int32 overflow contract of cnn/gemm_int.h).
    void (*gemm_f32)(const double* panels, const float* b, float* c,
                     std::size_t m, std::size_t k, std::size_t n,
                     const std::size_t* boff);
    void (*gemv_f32)(const float* a, const float* b, const float* bias,
                     float* c, std::size_t m, std::size_t k);
    void (*gemm_s8)(const std::int8_t* a, const std::int8_t* b,
                    const std::int32_t* bias, std::int32_t* c,
                    std::size_t m, std::size_t k, std::size_t n);
    void (*gemm_s16)(const std::int16_t* a, const std::int16_t* b,
                     const std::int64_t* bias, std::int64_t* c,
                     std::size_t m, std::size_t k, std::size_t n);
    // Symmetric quantizer (fixedpoint/quantize.h quantize_value) over n
    // floats: code = clamp(round_half_away(x / step), lo, hi) with lo/hi
    // the signed range as doubles. Writes float(code * step) to `fake`
    // (fake quantization; may alias x) or the code to `codes` -- exactly
    // one is non-null. step must be finite and > 0. Returns false, with
    // the outputs unspecified, when some x is NaN or +-inf.
    bool (*quantize_f32)(const float* x, std::size_t n, double step,
                         double lo, double hi, float* fake,
                         std::int32_t* codes);
    // choose_quant's scan: max over n floats of (bits & 0x7fffffff), 0
    // when n == 0; NaN and +-inf give >= 0x7f800000.
    std::uint32_t (*absmax_bits)(const float* x, std::size_t n);
};

// Per-backend tables. A backend whose ISA the *build* cannot target
// (compiler too old, wrong architecture) returns nullptr; scalar is
// always present.
namespace scalar {
const kernel_table* table() noexcept;
}
namespace neon {
const kernel_table* table() noexcept;
}
namespace avx2 {
const kernel_table* table() noexcept;
}
namespace avx512 {
const kernel_table* table() noexcept;
}

// The dispatched table: best compiled-in backend the running CPU supports,
// or whatever DVAFS_FORCE_ISA / force_isa() pinned. First call reads the
// environment; thread-safe (one atomic pointer).
const kernel_table& active();
isa active_isa();

const char* isa_name(isa level) noexcept;
// Parses "scalar"/"neon"/"avx2"/"avx512"; false on anything else.
bool parse_isa(const std::string& name, isa& out) noexcept;

// Backends that are both compiled in and supported by the running CPU,
// lowest level first (always contains isa::scalar).
std::vector<isa> available();
// Table for one level, nullptr when not compiled in or not supported.
const kernel_table* table_for(isa level) noexcept;

// Pins dispatch to `level` (or its string name). Returns false -- leaving
// dispatch unchanged -- when the backend is unavailable or unknown.
bool force_isa(isa level);
bool force_isa(const std::string& name);
// Re-reads DVAFS_FORCE_ISA and re-picks (tests use this to exercise the
// override round-trip); an unset variable restores best-available. An
// unknown or unavailable value warns on stderr and falls back to best.
isa refresh_from_env();

} // namespace dvafs::vec
