// Runtime backend selection (see vec/vec.h for the model).
//
// Compiled at baseline flags -- this TU must run on any host. Backend
// availability is the AND of two gates: the backend TU compiled real code
// (its table() is non-null) and the running CPU reports the ISA
// (__builtin_cpu_supports). The active table is a single atomic pointer;
// first use resolves DVAFS_FORCE_ISA.

#include "vec/vec.h"

#include <atomic>
#include <cstdlib>
#include <iostream>

namespace dvafs::vec {

namespace {

const kernel_table* compiled_table(isa level) noexcept
{
    switch (level) {
    case isa::scalar: return scalar::table();
    case isa::neon: return neon::table();
    case isa::avx2: return avx2::table();
    case isa::avx512: return avx512::table();
    }
    return nullptr;
}

bool cpu_supports(isa level) noexcept
{
    switch (level) {
    case isa::scalar:
        return true;
#if defined(__x86_64__) || defined(__i386__)
    case isa::neon:
        return false;
    case isa::avx2:
        // The AVX2 float kernels are FMA kernels (ops_avx2.h).
        return __builtin_cpu_supports("avx2") != 0
               && __builtin_cpu_supports("fma") != 0;
    case isa::avx512:
        return __builtin_cpu_supports("avx512f") != 0
               && __builtin_cpu_supports("avx512bw") != 0
               && __builtin_cpu_supports("avx512vl") != 0
               && __builtin_cpu_supports("avx512vpopcntdq") != 0;
#else
    case isa::neon:
        // A neon table only compiles on ARM builds, where NEON is part of
        // the aarch64 baseline.
        return true;
    case isa::avx2:
    case isa::avx512:
        return false;
#endif
    }
    return false;
}

// Non-null iff the backend is compiled in AND the CPU supports it.
const kernel_table* usable_table(isa level) noexcept
{
    return cpu_supports(level) ? compiled_table(level) : nullptr;
}

const kernel_table* best_table() noexcept
{
    for (const isa level : {isa::avx512, isa::avx2, isa::neon}) {
        if (const kernel_table* t = usable_table(level)) {
            return t;
        }
    }
    return scalar::table();
}

std::atomic<const kernel_table*> g_active{nullptr};

} // namespace

const char* isa_name(isa level) noexcept
{
    switch (level) {
    case isa::scalar: return "scalar";
    case isa::neon: return "neon";
    case isa::avx2: return "avx2";
    case isa::avx512: return "avx512";
    }
    return "?";
}

bool parse_isa(const std::string& name, isa& out) noexcept
{
    for (const isa level :
         {isa::scalar, isa::neon, isa::avx2, isa::avx512}) {
        if (name == isa_name(level)) {
            out = level;
            return true;
        }
    }
    return false;
}

std::vector<isa> available()
{
    std::vector<isa> out;
    for (const isa level :
         {isa::scalar, isa::neon, isa::avx2, isa::avx512}) {
        if (usable_table(level) != nullptr) {
            out.push_back(level);
        }
    }
    return out;
}

const kernel_table* table_for(isa level) noexcept
{
    return usable_table(level);
}

bool force_isa(isa level)
{
    const kernel_table* t = usable_table(level);
    if (t == nullptr) {
        return false;
    }
    g_active.store(t, std::memory_order_release);
    return true;
}

bool force_isa(const std::string& name)
{
    isa level{};
    return parse_isa(name, level) && force_isa(level);
}

isa refresh_from_env()
{
    const kernel_table* t = nullptr;
    if (const char* e = std::getenv("DVAFS_FORCE_ISA");
        e != nullptr && *e != '\0') {
        isa level{};
        if (!parse_isa(e, level)) {
            std::cerr << "dvafs: DVAFS_FORCE_ISA='" << e
                      << "' is not an ISA name "
                         "(scalar/neon/avx2/avx512); "
                         "using best available\n";
        } else if ((t = usable_table(level)) == nullptr) {
            std::cerr << "dvafs: DVAFS_FORCE_ISA=" << e
                      << " is not available on this host/build; "
                         "using best available\n";
        }
    }
    if (t == nullptr) {
        t = best_table();
    }
    g_active.store(t, std::memory_order_release);
    return static_cast<isa>(t->level);
}

const kernel_table& active()
{
    const kernel_table* t = g_active.load(std::memory_order_acquire);
    if (t == nullptr) {
        // Benign race: concurrent first users resolve the same table.
        refresh_from_env();
        t = g_active.load(std::memory_order_acquire);
    }
    return *t;
}

isa active_isa()
{
    return static_cast<isa>(active().level);
}

} // namespace dvafs::vec
