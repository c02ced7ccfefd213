// The NEON backend (aarch64 baseline; no extra compile flags needed).
// On non-ARM builds the guard fails and the TU degrades to a nullptr
// table.

#include "vec/backend_prelude.h"

namespace dvafs::vec {
namespace neon {

#if defined(__ARM_NEON)

#define DVAFS_VEC_BACKEND_STRING "neon"
#define DVAFS_VEC_BACKEND_LEVEL ::dvafs::vec::isa::neon

#include "vec/ops_neon.h"     // NOLINT(bugprone-suspicious-include)
#include "vec/kernels_body.h" // NOLINT(bugprone-suspicious-include)

#else

const kernel_table* table() noexcept
{
    return nullptr;
}

#endif

} // namespace neon
} // namespace dvafs::vec
