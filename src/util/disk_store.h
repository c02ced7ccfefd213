// Versioned on-disk cache shared by a fleet of planner processes.
//
// The three expensive measurement caches (compiled schedules, mode
// frontiers + their resumable measurement states, teacher sweeps) persist
// their entries here so cold-start-to-first-replan stops paying seconds of
// gate-level sweeps in every new process. Design rules:
//
//  * Opt-in: the store root is the DVAFS_CACHE_DIR environment variable;
//    unset (or any filesystem failure) means every call degrades to a
//    cache miss and the caller re-measures. Persistence is an
//    optimization, never a correctness dependency.
//  * Content-keyed: entries live at <dir>/<kind>/<fnv1a(key)>.bin, and the
//    full key string is embedded in the file and verified on load, so a
//    filename-hash collision reads as a miss instead of the wrong entry.
//    Keys must therefore identify the content exactly (the reason
//    frontier_config::key serializes doubles as hexfloat).
//  * Self-checking: a magic, a store-format version, the kind, the key and
//    an FNV-1a payload checksum frame every file. Truncated, corrupt,
//    version-bumped or mismatched files load as std::nullopt -- silently
//    re-measured, never a crash (tests/test_disk_store.cpp).
//  * Quarantine, not re-read: a file that fails integrity validation
//    (magic, format version, checksum, truncation) is renamed to
//    <name>.bad so the corrupt entry is re-measured exactly once instead
//    of on every process start; a filename-hash collision (valid frame,
//    different embedded key) is someone else's live entry and is left
//    alone. Quarantined files are counted in the process-wide stats.
//  * Bounded retry with backoff: transient I/O failures (reported by the
//    fault hook below, or a failed read/write of an existing file) are
//    retried up to max_retries times with a short linearly growing sleep
//    before degrading to a miss. ENOSPC-class failures are terminal --
//    retrying a full disk only burns time.
//  * Atomic publication: writes go to a unique temp file in the same
//    directory and are renamed into place, so concurrent writers (or a
//    crash mid-write) leave either the old entry or one complete new
//    entry, never a torn file. Per-process races are additionally
//    serialized by the callers' single-flight latches (frontier_cache).
//
// Fault injection: the streaming runtime's fault harness
// (runtime/fault_injector.h) installs a process-wide disk_fault_hook that
// every load/store consults, so deterministic tests can script slow
// reads, corrupt entries, transient I/O errors and ENOSPC without
// touching a real filesystem knob. The hook is read through an atomic
// pointer; install/clear it only while no other thread is in the store.
//
// Layout and invalidation rules are documented in docs/bench_schema.md and
// the README's "Planning pipeline" section.

#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dvafs {

// FNV-1a over a string; the filename hash and payload checksum primitive.
std::uint64_t fnv1a_hash(const std::string& s) noexcept;
std::uint64_t fnv1a_hash(const std::vector<std::uint8_t>& bytes) noexcept;

// -- fault injection ----------------------------------------------------------

enum class disk_op : std::uint8_t { load = 0, store = 1 };

// What the fault hook may inject into one load/store attempt:
//  * slow_read  -- the hook itself stalls (wall clock only; reporting-safe
//                  because measured time never feeds back into decisions);
//  * corrupt    -- load only: the raw bytes are bit-flipped before the
//                  frame checks, driving the checksum/quarantine path;
//  * transient  -- the attempt fails as a retriable I/O error (the store
//                  retries with backoff up to disk_store::max_retries);
//  * enospc     -- store only: the write fails terminally (no retry).
enum class disk_fault : std::uint8_t {
    none = 0,
    slow_read,
    corrupt,
    transient,
    enospc,
};

const char* to_string(disk_fault f) noexcept;

// Consulted once per physical attempt (so a script can fail an operation
// twice and let the third retry through). Implementations must be
// thread-safe: loads and stores run from measurement worker threads.
class disk_fault_hook {
public:
    virtual ~disk_fault_hook() = default;
    virtual disk_fault on_disk_op(disk_op op, const std::string& kind,
                                  const std::string& key) = 0;
};

// Process-wide hook (nullptr = no faults). Returns the previous hook.
disk_fault_hook* set_disk_fault_hook(disk_fault_hook* hook) noexcept;

// RAII installer for tests/benches: installs on construction, restores
// the previous hook on destruction.
class scoped_disk_fault_hook {
public:
    explicit scoped_disk_fault_hook(disk_fault_hook* hook)
        : prev_(set_disk_fault_hook(hook))
    {
    }
    ~scoped_disk_fault_hook() { set_disk_fault_hook(prev_); }
    scoped_disk_fault_hook(const scoped_disk_fault_hook&) = delete;
    scoped_disk_fault_hook& operator=(const scoped_disk_fault_hook&) =
        delete;

private:
    disk_fault_hook* prev_;
};

// -- stats --------------------------------------------------------------------

// Process-wide store health counters (atomic: loads/stores run from
// worker threads). Snapshot with disk_store::stats(), zero with
// disk_store::reset_stats() at the top of a test.
struct disk_store_stats {
    std::uint64_t loads = 0;          // load() calls on an enabled store
    std::uint64_t hits = 0;           // loads returning a payload
    std::uint64_t stores = 0;         // store() calls on an enabled store
    std::uint64_t store_failures = 0; // stores that returned false
    std::uint64_t quarantined = 0;    // files renamed to <name>.bad
    std::uint64_t retries = 0;        // transient-failure retry attempts
    std::uint64_t faults_injected = 0; // hook verdicts != none
};

class disk_store {
public:
    // Bounded retry-with-backoff for transient I/O failures: attempt
    // max_retries + 1 times, sleeping attempt * retry_backoff_ms between
    // tries. Small on purpose -- the store is an optimization and a miss
    // is always safe.
    static constexpr int max_retries = 2;
    static constexpr int retry_backoff_ms = 1;

    // Disabled store: every load misses, every store is a no-op.
    disk_store() = default;

    // Store rooted at `dir` ("" = disabled). The directory is created
    // lazily on the first write.
    explicit disk_store(std::string dir) : dir_(std::move(dir)) {}

    // Reads DVAFS_CACHE_DIR at call time (not process start), so tests can
    // point different cache instances at different roots.
    static disk_store from_env();

    bool enabled() const noexcept { return !dir_.empty(); }
    const std::string& dir() const noexcept { return dir_; }

    // The payload stored under (kind, key), or nullopt when the store is
    // disabled, the entry is absent, or the file fails any integrity check
    // (magic, version, kind, embedded key, checksum). Integrity failures
    // quarantine the file (see the header comment). Never throws.
    std::optional<std::vector<std::uint8_t>>
    load(const std::string& kind, const std::string& key) const;

    // Atomically publishes `payload` under (kind, key). Best effort:
    // returns false (and leaves any previous entry intact) on any
    // filesystem failure. Transient failures are retried with backoff;
    // ENOSPC is terminal. Never throws.
    bool store(const std::string& kind, const std::string& key,
               const std::vector<std::uint8_t>& payload) const;

    // The path an entry lives at (valid even when the file is absent).
    std::string path_for(const std::string& kind,
                         const std::string& key) const;

    // Process-wide counters (all enabled stores share them).
    static disk_store_stats stats() noexcept;
    static void reset_stats() noexcept;

private:
    std::string dir_;
};

} // namespace dvafs
