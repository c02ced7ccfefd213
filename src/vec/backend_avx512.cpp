// The AVX-512 backend (F+BW+VL+VPOPCNTDQ). CMake compiles this TU with
// the matching -m flags when the compiler has them; otherwise the guard
// fails and the TU degrades to a nullptr table. The stack is the
// ops_avx512.h vocabulary (kernels_body.h's vector kernels at W = 8),
// then ops_avx2.h, whose vocabulary steps aside and whose AVX2-only
// bodies recompile under this TU's flags, then the scalar reference.

#include "vec/backend_prelude.h"

// GCC 12 false positive (PR105593): every maskless AVX-512 intrinsic
// passes a _mm512_undefined_*() operand (self-initialized `__Y = __Y` in
// the vendor header) that the inliner reports as maybe-uninitialized at
// -O2. The operand is dead by construction; silence the class for this
// one TU rather than dropping -Werror.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace dvafs::vec {
namespace avx512 {

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) \
    && defined(__AVX512VPOPCNTDQ__)

#define DVAFS_VEC_BACKEND_STRING "avx512"
#define DVAFS_VEC_BACKEND_LEVEL ::dvafs::vec::isa::avx512

#include "vec/ops_avx512.h"   // NOLINT(bugprone-suspicious-include)
#include "vec/ops_avx2.h"     // NOLINT(bugprone-suspicious-include)
#include "vec/kernels_body.h" // NOLINT(bugprone-suspicious-include)

#else

const kernel_table* table() noexcept
{
    return nullptr;
}

#endif

} // namespace avx512
} // namespace dvafs::vec
