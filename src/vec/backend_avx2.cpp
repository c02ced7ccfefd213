// The AVX2 backend. CMake compiles this TU with -mavx2 -mpopcnt when the
// compiler supports them; on other compilers or architectures __AVX2__ is
// absent and the TU degrades to a nullptr table (the dispatcher then
// never offers this level). Runtime selection additionally requires the
// CPU to report AVX2 and FMA (the float kernels enable FMA per function)
// -- the ISA-specific code below never executes on a host without them.

#include "vec/backend_prelude.h"

namespace dvafs::vec {
namespace avx2 {

#if defined(__AVX2__)

#define DVAFS_VEC_BACKEND_STRING "avx2"
#define DVAFS_VEC_BACKEND_LEVEL ::dvafs::vec::isa::avx2

#include "vec/ops_avx2.h"     // NOLINT(bugprone-suspicious-include)
#include "vec/kernels_body.h" // NOLINT(bugprone-suspicious-include)

#else

const kernel_table* table() noexcept
{
    return nullptr;
}

#endif

} // namespace avx2
} // namespace dvafs::vec
