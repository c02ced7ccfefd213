#include "util/disk_store.h"

#include "util/serial.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

namespace dvafs {

namespace {

// "DVFS" little-endian; bumped together with store_format_version whenever
// the framing (not a payload) changes.
constexpr std::uint32_t store_magic = 0x53465644U;
constexpr std::uint32_t store_format_version = 1;

std::uint64_t fnv1a_init() noexcept { return 1469598103934665603ULL; }

void fnv1a_mix(std::uint64_t& h, std::uint8_t b) noexcept
{
    h ^= b;
    h *= 1099511628211ULL;
}

std::atomic<disk_fault_hook*> g_fault_hook{nullptr};

// Process-wide counters; plain relaxed atomics (diagnostics, not
// synchronization).
struct stats_cells {
    std::atomic<std::uint64_t> loads{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> stores{0};
    std::atomic<std::uint64_t> store_failures{0};
    std::atomic<std::uint64_t> quarantined{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> faults_injected{0};
};

stats_cells& cells() noexcept
{
    static stats_cells s;
    return s;
}

void bump(std::atomic<std::uint64_t>& c) noexcept
{
    c.fetch_add(1, std::memory_order_relaxed);
}

disk_fault consult_hook(disk_op op, const std::string& kind,
                        const std::string& key)
{
    disk_fault_hook* hook =
        g_fault_hook.load(std::memory_order_acquire);
    if (hook == nullptr) {
        return disk_fault::none;
    }
    const disk_fault f = hook->on_disk_op(op, kind, key);
    if (f != disk_fault::none) {
        bump(cells().faults_injected);
    }
    return f;
}

void backoff_sleep(int attempt)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(
        disk_store::retry_backoff_ms * (attempt + 1)));
}

// Best-effort rename of a failed-validation file to <path>.bad so the
// next process start misses cheaply instead of re-validating the same
// corrupt bytes. Losing the race to a concurrent quarantine (or any
// filesystem error) is fine -- the entry is gone either way.
void quarantine(const std::filesystem::path& path) noexcept
{
    std::error_code ec;
    std::filesystem::rename(
        path, std::filesystem::path(path.string() + ".bad"), ec);
    if (!ec) {
        bump(cells().quarantined);
    }
}

} // namespace

std::uint64_t fnv1a_hash(const std::string& s) noexcept
{
    std::uint64_t h = fnv1a_init();
    for (const char c : s) {
        fnv1a_mix(h, static_cast<std::uint8_t>(c));
    }
    return h;
}

std::uint64_t fnv1a_hash(const std::vector<std::uint8_t>& bytes) noexcept
{
    std::uint64_t h = fnv1a_init();
    for (const std::uint8_t b : bytes) {
        fnv1a_mix(h, b);
    }
    return h;
}

const char* to_string(disk_fault f) noexcept
{
    switch (f) {
    case disk_fault::none: return "none";
    case disk_fault::slow_read: return "slow-read";
    case disk_fault::corrupt: return "corrupt";
    case disk_fault::transient: return "transient";
    case disk_fault::enospc: return "enospc";
    }
    return "?";
}

disk_fault_hook* set_disk_fault_hook(disk_fault_hook* hook) noexcept
{
    return g_fault_hook.exchange(hook, std::memory_order_acq_rel);
}

disk_store_stats disk_store::stats() noexcept
{
    const stats_cells& c = cells();
    disk_store_stats s;
    s.loads = c.loads.load(std::memory_order_relaxed);
    s.hits = c.hits.load(std::memory_order_relaxed);
    s.stores = c.stores.load(std::memory_order_relaxed);
    s.store_failures = c.store_failures.load(std::memory_order_relaxed);
    s.quarantined = c.quarantined.load(std::memory_order_relaxed);
    s.retries = c.retries.load(std::memory_order_relaxed);
    s.faults_injected = c.faults_injected.load(std::memory_order_relaxed);
    return s;
}

void disk_store::reset_stats() noexcept
{
    stats_cells& c = cells();
    c.loads.store(0, std::memory_order_relaxed);
    c.hits.store(0, std::memory_order_relaxed);
    c.stores.store(0, std::memory_order_relaxed);
    c.store_failures.store(0, std::memory_order_relaxed);
    c.quarantined.store(0, std::memory_order_relaxed);
    c.retries.store(0, std::memory_order_relaxed);
    c.faults_injected.store(0, std::memory_order_relaxed);
}

disk_store disk_store::from_env()
{
    const char* dir = std::getenv("DVAFS_CACHE_DIR");
    return dir != nullptr && dir[0] != '\0' ? disk_store(dir)
                                            : disk_store();
}

std::string disk_store::path_for(const std::string& kind,
                                 const std::string& key) const
{
    std::ostringstream os;
    os << dir_ << '/' << kind << '/' << std::hex << fnv1a_hash(key)
       << ".bin";
    return os.str();
}

std::optional<std::vector<std::uint8_t>>
disk_store::load(const std::string& kind, const std::string& key) const
{
    if (!enabled()) {
        return std::nullopt;
    }
    bump(cells().loads);

    std::vector<std::uint8_t> raw;
    bool read_ok = false;
    bool injected_corrupt = false;
    for (int attempt = 0; attempt <= max_retries; ++attempt) {
        if (attempt > 0) {
            bump(cells().retries);
            backoff_sleep(attempt - 1);
        }
        const disk_fault f = consult_hook(disk_op::load, kind, key);
        if (f == disk_fault::slow_read) {
            backoff_sleep(0); // modeled latency; wall clock only
        } else if (f == disk_fault::transient) {
            continue; // retriable: this attempt failed before the read
        } else if (f == disk_fault::corrupt) {
            injected_corrupt = true;
        }
        try {
            std::ifstream in(path_for(kind, key),
                             std::ios::binary | std::ios::ate);
            if (!in) {
                // Absent entries are the common miss; retrying cannot
                // make a file exist.
                return std::nullopt;
            }
            const std::streamoff size = in.tellg();
            if (size < 0) {
                continue;
            }
            raw.resize(static_cast<std::size_t>(size));
            in.seekg(0);
            in.read(reinterpret_cast<char*>(raw.data()),
                    static_cast<std::streamsize>(raw.size()));
            if (!in) {
                continue; // short read of an existing file: transient
            }
            read_ok = true;
            break;
        } catch (...) {
            continue;
        }
    }
    if (!read_ok) {
        return std::nullopt;
    }
    if (injected_corrupt && !raw.empty()) {
        raw[raw.size() / 2] ^= 0x40U; // land inside the payload/checksum
    }

    // Frame checks. Integrity failures -- wrong magic, a format bump, bit
    // rot (checksum), plain truncation -- quarantine the file (renamed to
    // <name>.bad) so the corrupt entry costs one validation, not one per
    // process start. A filename-hash collision (valid frame, different
    // embedded key) is a live entry for another key: plain miss, no
    // quarantine.
    const std::filesystem::path path(path_for(kind, key));
    try {
        byte_reader r(raw);
        if (r.u32() != store_magic
            || r.u32() != store_format_version) {
            quarantine(path);
            return std::nullopt;
        }
        if (r.str() != kind || r.str() != key) {
            return std::nullopt;
        }
        const std::uint64_t checksum = r.u64();
        std::vector<std::uint8_t> payload = r.bytes_u8();
        if (!r.done() || fnv1a_hash(payload) != checksum) {
            quarantine(path);
            return std::nullopt;
        }
        bump(cells().hits);
        return payload;
    } catch (const serial_error&) {
        quarantine(path);
        return std::nullopt;
    }
}

bool disk_store::store(const std::string& kind, const std::string& key,
                       const std::vector<std::uint8_t>& payload) const
{
    if (!enabled()) {
        return false;
    }
    bump(cells().stores);
    byte_writer w;
    w.u32(store_magic);
    w.u32(store_format_version);
    w.str(kind);
    w.str(key);
    w.u64(fnv1a_hash(payload));
    w.bytes_u8(payload);

    for (int attempt = 0; attempt <= max_retries; ++attempt) {
        if (attempt > 0) {
            bump(cells().retries);
            backoff_sleep(attempt - 1);
        }
        const disk_fault f = consult_hook(disk_op::store, kind, key);
        if (f == disk_fault::transient) {
            continue;
        }
        if (f == disk_fault::enospc) {
            // A full disk does not clear on retry; degrade immediately.
            break;
        }
        try {
            namespace fs = std::filesystem;
            const fs::path target(path_for(kind, key));
            fs::create_directories(target.parent_path());
            // Unique temp name in the *same* directory (rename must not
            // cross filesystems): pid + a process-local counter.
            static std::atomic<std::uint64_t> seq{0};
            std::ostringstream tmp_name;
            tmp_name << target.filename().string() << ".tmp."
                     << static_cast<unsigned long>(::getpid()) << "."
                     << seq.fetch_add(1, std::memory_order_relaxed);
            const fs::path tmp = target.parent_path() / tmp_name.str();
            {
                std::ofstream out(tmp,
                                  std::ios::binary | std::ios::trunc);
                if (!out) {
                    continue;
                }
                const auto& bytes = w.data();
                out.write(reinterpret_cast<const char*>(bytes.data()),
                          static_cast<std::streamsize>(bytes.size()));
                if (!out) {
                    out.close();
                    fs::remove(tmp);
                    continue;
                }
            }
            // Atomic publication: concurrent writers race renames, and
            // the last complete file wins; a reader sees old or new,
            // never torn.
            std::error_code ec;
            fs::rename(tmp, target, ec);
            if (ec) {
                fs::remove(tmp, ec);
                continue;
            }
            return true;
        } catch (...) {
            continue;
        }
    }
    bump(cells().store_failures);
    return false;
}

} // namespace dvafs
