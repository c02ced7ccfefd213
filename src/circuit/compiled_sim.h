// Compile-then-run gate simulation: the energy hot path.
//
// Every energy figure in the repo (Fig. 2/3a/3b/4, Table I k-params, the
// measured mode frontiers, the streaming governor's prepare pass) bottoms
// out in gate-level switching activity. An interpreter pays one
// `switch (g.kind)` and three random gathers per gate per vector, so this
// module compiles the netlist once and then runs a schedule with no
// per-gate dispatch at all:
//
//  * Gates are levelized and sorted by kind into homogeneous runs stored
//    structure-of-arrays (in0[]/in1[]/in2[]/out[] index arrays per run).
//    Each run is evaluated by a tight branch-free kernel instantiated per
//    gate_kind from the shared truth table in circuit/gate_kinds.h, with
//    the per-net toggle popcount fused into the same pass.
//  * Every net carries 512 lanes (8 uint64_t words), so one levelized pass
//    evaluates 512 consecutive input vectors.
//  * Tied inputs (subword mode selects, DAS precision selects, gated
//    operand LSBs) are baked in at compile time: constants are folded,
//    static fan-out cones are pruned from the schedule, and their values
//    are materialized once. A half-precision mode therefore simulates
//    roughly half the netlist instead of masking it dynamically.
//
// The executor is bit-identical to the scalar oracle (logic_sim) on the
// same vector stream -- values, per-net toggles, switched capacitance,
// transitions, the first-vector warm-up and the batch-boundary toggle
// carry -- for every netlist, batch size and mode;
// tests/test_compiled_sim.cpp asserts this differentially. Mode-
// specialized schedules are only sound when the applied vectors actually
// honor the ties, so apply() validates the tied input words and throws on
// a violation instead of silently miscounting.
//
// Schedules are immutable after compilation and shared: one schedule
// serves any number of concurrent executors (sweep threads construct a
// private compiled_sim each over the shared schedule). compiled_netlist_cache
// keys schedules on netlist *content* (structural hash), not address, so
// identical netlists -- e.g. repeated dvafs_multiplier(16) constructions
// -- share one compiled schedule process-wide, the frontier_cache pattern.

#pragma once

#include "circuit/netlist.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace dvafs {

struct tech_model; // circuit/tech.h

// One kind-homogeneous slice of the schedule: gates [begin, end) of the
// SoA index arrays, all of the same kind, in dependency-safe order.
struct compiled_run {
    gate_kind kind = gate_kind::buf;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
};

// The compiled form of a netlist under a set of tied inputs. Fully
// self-contained (kinds and input layout are copied), so a schedule never
// dangles even if the source netlist is destroyed first.
//
// Nets are renumbered into a *dense* id space ordered hot-to-cold:
// scheduled gates first, in schedule order -- so a gate's value, toggle
// and last-lane slots are written at index == its schedule position,
// turning three of the kernel's memory streams sequential -- then the
// live inputs, then every folded (constant) net. dense_of maps original
// net ids to dense slots for the value/toggle accessors.
struct compiled_schedule {
    // -- netlist shape -------------------------------------------------------
    std::size_t net_count = 0;
    std::size_t input_count = 0;          // primary inputs, netlist order
    std::vector<net_id> dense_of;         // original net id -> dense slot
    std::vector<gate_kind> kinds;         // per dense slot, for cap weights

    // -- dynamic part --------------------------------------------------------
    struct live_input {
        net_id dense = 0;                 // dense slot of this input
        std::uint32_t pos = 0;            // index in the netlist input order
    };
    std::vector<live_input> live_inputs;  // inputs that still vary
    std::vector<compiled_run> runs;       // level-major, kind-sorted
    // SoA fanin arrays (dense ids), one entry per scheduled gate; the
    // gate's own output slot is its array index. Absent fanins hold 0.
    std::vector<net_id> in0;
    std::vector<net_id> in1;
    std::vector<net_id> in2;

    // -- folded part ---------------------------------------------------------
    // Tied-input checks run on every apply(). Besides the input position
    // and required value, each check carries the original net id and the
    // input's registered name so a violation names the offending input the
    // same way the schedule verifier does.
    struct tied_check {
        std::uint32_t pos = 0; // index in the netlist input order
        bool value = false;    // the baked-in constant
        net_id net = no_net;   // original primary-input net id
        std::string name;      // input name ("" when unnamed)
    };
    std::vector<tied_check> tied_checks;
    std::vector<net_id> const_dense;      // dense slots with fixed values
    std::vector<std::uint8_t> const_vals; // parallel to const_dense
    std::size_t pruned_gates = 0;         // logic gates folded out (stats)

    std::size_t scheduled_gates() const noexcept { return in0.size(); }
};

// Compiles `nl` under `tied` (pairs of primary-input net and constant
// value, e.g. dvafs_multiplier::tied_inputs): three-valued constant
// propagation folds every gate whose output is fixed, the survivors are
// levelized and kind-sorted into runs. An empty tie set compiles the
// generic schedule (only constant gates and their cones fold). Throws
// std::invalid_argument when a tied net is not a primary input.
compiled_schedule
compile_netlist(const netlist& nl,
                const std::vector<std::pair<net_id, bool>>& tied = {});

// Verify-on-compile: when enabled, compile_netlist runs the static
// verifiers from src/analysis/ (netlist structure, then schedule
// soundness against the three-valued folding oracle) on every compile and
// throws verification_error on a failed report. Off by default -- the
// verifiers cost O(netlist) per compile and schedules are cached -- and
// overridable per process via the DVAFS_VERIFY_COMPILE environment
// variable ("1"/"on" enables, "0"/"off" disables; the setter wins once
// called). Thread-safe.
void set_verify_on_compile(bool on) noexcept;
bool verify_on_compile() noexcept;

// -- schedule persistence -----------------------------------------------------

// Byte-serializes a compiled schedule for the on-disk cache
// (util/disk_store.h). The inverse returns nullopt on any structural
// inconsistency -- truncation, bad sizes, out-of-range dense slots or run
// bounds -- so a corrupt or stale blob degrades to "recompile", never a
// crash or an unsound schedule.
std::vector<std::uint8_t> serialize_schedule(const compiled_schedule& s);
std::optional<compiled_schedule>
deserialize_schedule(const std::vector<std::uint8_t>& bytes);

// -- resumable activity state -------------------------------------------------

// The executor's cross-batch statistics carry, detached from the executor:
// per-net last-lane values, per-net toggle counters, the transition count
// and the warm-up flag. save/load round trips are bit-exact, which is what
// lets a measurement suspend after N vectors (persisting this struct) and
// resume to the same statistics a single uninterrupted run produces.
struct sim_activity_state {
    std::vector<std::uint8_t> last;      // final-lane value per dense net
    std::vector<std::uint64_t> toggles;  // per dense net
    std::uint64_t transitions = 0;
    bool initialized = false;
};

// Switched capacitance from a detached toggle array (original-net-order
// summation -- the bit-exactness contract all engines share). The member
// compiled_sim::switched_capacitance_ff delegates here.
double schedule_switched_capacitance_ff(const compiled_schedule& s,
                                        const std::vector<std::uint64_t>&
                                            toggles,
                                        const tech_model& tech);

// Bit-parallel executor over a compiled schedule, 512 lanes per pass.
// Same statistics contract as logic_sim (lanes ordered in time, toggle
// carry across batches, warm-up first vector).
class compiled_sim {
public:
    // Each net holds lane_words uint64_t words; lane v is bit v%64 of word
    // v/64.
    static constexpr int lane_words = 8;
    static constexpr int lane_capacity = 64 * lane_words;

    explicit compiled_sim(std::shared_ptr<const compiled_schedule> schedule);

    // Evaluates `count` (1..lane_capacity) input vectors in one schedule
    // pass. input_words holds lane_words words per primary input,
    // input-major (words [i*lane_words, (i+1)*lane_words) are input i's
    // lanes -- dvafs_multiplier::pack_input_words produces this). Throws
    // std::invalid_argument on a size/count mismatch or when a tied
    // input's words contradict the schedule's baked-in constants.
    void apply(const std::vector<std::uint64_t>& input_words, int count);

    // Value of a net under vector `lane` of the last batch (lane must be
    // in [0, lane_capacity); lanes >= the last count are garbage).
    bool value(net_id id, int lane) const;

    // Reads a multi-bit bus (LSB first) under vector `lane`. Throws
    // std::invalid_argument when the bus is wider than 64 nets.
    std::uint64_t read_bus(const std::vector<net_id>& nets, int lane) const;

    // -- activity statistics (same contract as logic_sim) --------------------
    std::uint64_t toggles(net_id id) const
    {
        return toggles_[sched_->dense_of.at(id)];
    }
    std::uint64_t total_toggles() const noexcept;
    double switched_capacitance_ff(const tech_model& tech) const;
    std::uint64_t transitions() const noexcept { return transitions_; }

    // Clears counters but keeps the last applied values (warm-up contract).
    void reset_stats();

    // -- suspend / resume / parallel merge -----------------------------------
    // Detached copy of the statistics carry (see sim_activity_state).
    sim_activity_state save_activity() const;
    // Restores a saved carry; the subsequent apply() continues the
    // statistics exactly where the save left off. Lane *values* are not
    // part of the carry (the next apply overwrites every live net), only
    // the per-net last-lane bits that seed the toggle comparison. Throws
    // std::invalid_argument when the state's shape does not match this
    // schedule.
    void load_activity(const sim_activity_state& st);
    // Adopts `src`'s cross-batch carry (last-lane values + warm-up flag)
    // without touching the counters: after a chunked parallel batch the
    // owning executor takes the *final* chunk's carry so the next batch
    // continues as if it had run every chunk itself. Both executors must
    // run the same schedule object.
    void adopt_carry(const compiled_sim& src);
    // Accumulates `src`'s counters (per-net toggles + transitions) into
    // this executor. Integer sums, so merge order cannot perturb results.
    // Both executors must run the same schedule object.
    void merge_stats(const compiled_sim& src);

    const compiled_schedule& schedule() const noexcept { return *sched_; }

private:
    // Gate runs execute through the dispatched host-SIMD backend
    // (src/vec/): one indirect call per kind-homogeneous run, the kind
    // switch and the 8-word kernels live in the backend TU. Every backend
    // is bit-identical to the scalar one, so engine results never depend
    // on the host ISA.
    void dispatch_run(const compiled_run& run,
                      const std::uint64_t* toggle_mask, int last_word,
                      int last_bit);
    bool lane_bit(net_id dense, int lane) const noexcept;

    std::shared_ptr<const compiled_schedule> sched_;
    std::vector<std::uint64_t> values_; // lane_words per dense net
    std::vector<std::uint8_t> last_; // final-lane value of the prev batch
    std::vector<std::uint64_t> toggles_;
    std::uint64_t transitions_ = 0;
    bool initialized_ = false;
};

// Process-wide pool of warm executors, keyed by schedule. An executor is
// three net_count-sized allocations (values, last, toggles); sweeps and
// batched error analysis construct one per measured point, so reusing
// idle executors removes the dominant allocation from the measurement hot
// path. Leases hand the executor back on destruction. A leased executor
// carries *stale* values/carry from its previous use -- every measurement
// protocol here (warm-up vector + reset_stats, or load_activity) fully
// re-establishes that state, so reuse is bit-invisible; the pool does not
// scrub. Constant-net values are set at construction and never written,
// so they stay valid across reuses of the same schedule.
class compiled_sim_pool {
public:
    static compiled_sim_pool& global();

    class lease {
    public:
        lease() = default;
        lease(lease&& o) noexcept
            : pool_(o.pool_), sim_(std::move(o.sim_))
        {
            o.pool_ = nullptr;
        }
        lease& operator=(lease&& o) noexcept
        {
            if (this != &o) {
                release();
                pool_ = o.pool_;
                sim_ = std::move(o.sim_);
                o.pool_ = nullptr;
            }
            return *this;
        }
        lease(const lease&) = delete;
        lease& operator=(const lease&) = delete;
        ~lease() { release(); }

        compiled_sim& operator*() const noexcept { return *sim_; }
        compiled_sim* operator->() const noexcept { return sim_.get(); }
        compiled_sim* get() const noexcept { return sim_.get(); }
        explicit operator bool() const noexcept { return sim_ != nullptr; }

    private:
        friend class compiled_sim_pool;
        lease(compiled_sim_pool* pool,
              std::unique_ptr<compiled_sim> sim) noexcept
            : pool_(pool), sim_(std::move(sim))
        {
        }
        void release() noexcept;

        compiled_sim_pool* pool_ = nullptr;
        std::unique_ptr<compiled_sim> sim_;
    };

    // An idle executor over `sched` (or a freshly constructed one).
    lease acquire(std::shared_ptr<const compiled_schedule> sched);

private:
    compiled_sim_pool() = default;
    void give_back(std::unique_ptr<compiled_sim> sim);

    std::mutex mu_;
    // Keyed by schedule address: schedules are immutable and cached for
    // the process lifetime (compiled_netlist_cache), so an address
    // identifies one schedule for as long as any executor can exist.
    std::map<const compiled_schedule*,
             std::vector<std::unique_ptr<compiled_sim>>>
        idle_;
};

// Process-wide cache of compiled schedules, keyed on netlist content
// (structural hash over gates and inputs) plus the tie set -- NOT on the
// netlist's address, so short-lived netlist objects with identical
// structure (each dvafs_multiplier(16), say) share one schedule. Entries
// are immutable and live for the whole process (the netlist_cache /
// frontier_cache pattern). When DVAFS_CACHE_DIR is set, a memory miss
// consults the on-disk store ("schedule" kind, same content key) before
// compiling, and a fresh compile is persisted for the next process --
// deserialized schedules that fail the structural consistency checks are
// recompiled silently.
class compiled_netlist_cache {
public:
    // Public constructor so tests can run an isolated instance against a
    // private store; production code shares global().
    compiled_netlist_cache() = default;

    static compiled_netlist_cache& global();

    std::shared_ptr<const compiled_schedule>
    get(const netlist& nl,
        const std::vector<std::pair<net_id, bool>>& tied = {});

    // The content key get() uses (exposed for the disk-store tests).
    static std::string
    key_for(const netlist& nl,
            const std::vector<std::pair<net_id, bool>>& tied = {});

    struct cache_stats {
        std::uint64_t hits = 0;       // served from memory
        std::uint64_t disk_hits = 0;  // deserialized from the store
        std::uint64_t compiles = 0;   // compiled from the netlist
    };
    cache_stats stats() const noexcept
    {
        return {hits_.load(std::memory_order_relaxed),
                disk_hits_.load(std::memory_order_relaxed),
                compiles_.load(std::memory_order_relaxed)};
    }

private:
    std::mutex mu_;
    std::map<std::string, std::shared_ptr<const compiled_schedule>> entries_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> disk_hits_{0};
    std::atomic<std::uint64_t> compiles_{0};
};

} // namespace dvafs
