// The scalar backend: no overlay, so kernels_body.h compiles ops_scalar.h's
// plain loops at the build's baseline flags. This is the reference every other backend must
// match bit for bit, and the table DVAFS_FORCE_ISA=scalar pins.

#include "vec/backend_prelude.h"

namespace dvafs::vec {
namespace scalar {

#define DVAFS_VEC_BACKEND_STRING "scalar"
#define DVAFS_VEC_BACKEND_LEVEL ::dvafs::vec::isa::scalar

#include "vec/kernels_body.h" // NOLINT(bugprone-suspicious-include)

} // namespace scalar
} // namespace dvafs::vec
