#include "circuit/compiled_sim.h"

#include "analysis/netlist_verifier.h"
#include "analysis/schedule_verifier.h"
#include "circuit/gate_kinds.h"
#include "circuit/logic_sim.h"
#include "circuit/tech.h"
#include "util/disk_store.h"
#include "util/serial.h"
#include "vec/vec.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace dvafs {

// -- verify-on-compile flag ---------------------------------------------------

namespace {

// -1: unset, consult DVAFS_VERIFY_COMPILE on first use; 0/1: explicit.
std::atomic<int> g_verify_on_compile{-1};

bool env_verify_on_compile() noexcept
{
    const char* e = std::getenv("DVAFS_VERIFY_COMPILE");
    if (e == nullptr) {
        return false;
    }
    const std::string v(e);
    return v == "1" || v == "on" || v == "true" || v == "yes";
}

} // namespace

void set_verify_on_compile(bool on) noexcept
{
    g_verify_on_compile.store(on ? 1 : 0, std::memory_order_relaxed);
}

bool verify_on_compile() noexcept
{
    int s = g_verify_on_compile.load(std::memory_order_relaxed);
    if (s < 0) {
        // Benign race: the environment is stable, so concurrent first
        // readers all derive the same value.
        s = env_verify_on_compile() ? 1 : 0;
        g_verify_on_compile.store(s, std::memory_order_relaxed);
    }
    return s == 1;
}

// -- compilation --------------------------------------------------------------

compiled_schedule
compile_netlist(const netlist& nl,
                const std::vector<std::pair<net_id, bool>>& tied)
{
    const auto& gates = nl.gates();
    const auto& ins = nl.inputs();

    compiled_schedule s;
    s.net_count = nl.size();
    s.input_count = ins.size();

    std::vector<std::int8_t> tie(s.net_count, -1);
    for (const auto& [id, value] : tied) {
        if (nl.at(id).kind != gate_kind::input) {
            throw std::invalid_argument(
                "compile_netlist: tied net is not a primary input");
        }
        tie[id] = value ? 1 : 0;
    }

    // Three-valued constant propagation: the single folding oracle shared
    // with find_static_gates and the timing analyzer's active cone.
    const std::vector<std::uint8_t> val = propagate_constants(nl, tied);

    // Levelize the surviving gates (construction order is topological, so
    // one forward pass suffices; folded fanins sit at level 0), then sort
    // by (level, kind, id): within a level gates are independent, so
    // kind-grouping is free, and processing runs in this order keeps every
    // fanin evaluated before its reader even when same-kind runs merge
    // across level boundaries.
    std::vector<std::uint32_t> level(s.net_count, 0);
    std::vector<net_id> order;
    for (std::size_t i = 0; i < s.net_count; ++i) {
        const gate& g = gates[i];
        if (g.kind == gate_kind::input || g.kind == gate_kind::constant
            || val[i] != ternary_x) {
            continue;
        }
        const int arity = gate_kind_arity(g.kind);
        std::uint32_t lv = level[g.in0];
        if (arity >= 2) {
            lv = std::max(lv, level[g.in1]);
        }
        if (arity >= 3) {
            lv = std::max(lv, level[g.in2]);
        }
        level[i] = lv + 1;
        order.push_back(static_cast<net_id>(i));
    }
    std::sort(order.begin(), order.end(), [&](net_id a, net_id b) {
        if (level[a] != level[b]) {
            return level[a] < level[b];
        }
        if (gates[a].kind != gates[b].kind) {
            return gates[a].kind < gates[b].kind;
        }
        return a < b;
    });

    // Dense renumbering, hot to cold: scheduled gates in schedule order
    // (a gate's dense id == its schedule position), then live inputs,
    // then every folded net.
    constexpr net_id unassigned = no_net;
    s.dense_of.assign(s.net_count, unassigned);
    s.kinds.resize(s.net_count);
    net_id next = 0;
    const auto assign = [&](net_id orig) {
        s.dense_of[orig] = next;
        s.kinds[next] = gates[orig].kind;
        ++next;
    };
    for (const net_id id : order) {
        assign(id);
    }
    for (std::size_t pos = 0; pos < ins.size(); ++pos) {
        const net_id net = ins[pos];
        if (tie[net] < 0) {
            assign(net);
            s.live_inputs.push_back({s.dense_of[net],
                                     static_cast<std::uint32_t>(pos)});
        } else {
            s.tied_checks.push_back({static_cast<std::uint32_t>(pos),
                                     tie[net] != 0, net,
                                     nl.input_name(net)});
        }
    }
    for (std::size_t i = 0; i < s.net_count; ++i) {
        if (val[i] == ternary_x) {
            continue;
        }
        assign(static_cast<net_id>(i));
        s.const_dense.push_back(s.dense_of[i]);
        s.const_vals.push_back(val[i]);
        const gate_kind k = gates[i].kind;
        if (k != gate_kind::input && k != gate_kind::constant) {
            ++s.pruned_gates;
        }
    }

    s.in0.reserve(order.size());
    s.in1.reserve(order.size());
    s.in2.reserve(order.size());
    for (const net_id id : order) {
        const gate& g = gates[id];
        const int arity = gate_kind_arity(g.kind);
        if (s.runs.empty() || s.runs.back().kind != g.kind) {
            const auto at = static_cast<std::uint32_t>(s.in0.size());
            s.runs.push_back({g.kind, at, at});
        }
        s.in0.push_back(s.dense_of[g.in0]);
        s.in1.push_back(arity >= 2 ? s.dense_of[g.in1]
                                   : 0); // absent fanin: slot 0,
        s.in2.push_back(arity >= 3 ? s.dense_of[g.in2]
                                   : 0); // loaded but never used
        s.runs.back().end = static_cast<std::uint32_t>(s.in0.size());
    }

    // Verify-on-compile: prove the source netlist well-formed and the
    // schedule just built structurally sound against it before anything
    // caches or executes it.
    if (verify_on_compile()) {
        lint_report combined;
        combined.subject = "verify-on-compile";
        combined.merge(verify_netlist(nl, "netlist"));
        combined.merge(verify_schedule(nl, s, tied, "schedule"));
        if (!combined.ok()) {
            throw verification_error(std::move(combined));
        }
    }
    return s;
}

// -- executor -----------------------------------------------------------------

static_assert(compiled_sim::lane_words == vec::gate_words,
              "compiled_sim: lane width must match the vec gate kernels");

namespace {

constexpr std::size_t lane_words = compiled_sim::lane_words;

using lane_mask = std::array<std::uint64_t, lane_words>;

// All-ones in lanes [0, count), zero above: the partial-batch mask.
lane_mask first_lanes(int count) noexcept
{
    lane_mask mask{};
    for (std::size_t k = 0; k < lane_words; ++k) {
        const int lo = 64 * static_cast<int>(k);
        if (count >= lo + 64) {
            mask[k] = ~0ULL;
        } else if (count > lo) {
            mask[k] = (1ULL << (count - lo)) - 1;
        } else {
            mask[k] = 0;
        }
    }
    return mask;
}

} // namespace

compiled_sim::compiled_sim(std::shared_ptr<const compiled_schedule> schedule)
    : sched_(std::move(schedule)),
      values_(sched_->net_count * lane_words, 0),
      last_(sched_->net_count, 0),
      toggles_(sched_->net_count, 0)
{
    // Folded nets get their constant once; no kernel ever writes them and
    // the toggle accounting skips them (a constant never transitions).
    for (std::size_t i = 0; i < sched_->const_dense.size(); ++i) {
        const net_id slot = sched_->const_dense[i];
        const bool v = sched_->const_vals[i] != 0;
        std::fill_n(values_.begin()
                        + static_cast<std::ptrdiff_t>(slot * lane_words),
                    lane_words, v ? ~0ULL : 0ULL);
        last_[slot] = v ? 1 : 0;
    }
}

bool compiled_sim::lane_bit(net_id dense, int lane) const noexcept
{
    const std::uint64_t word =
        values_[dense * lane_words + static_cast<std::size_t>(lane >> 6)];
    return ((word >> (lane & 63)) & 1ULL) != 0;
}

void compiled_sim::dispatch_run(const compiled_run& run,
                                const std::uint64_t* toggle_mask,
                                int last_word, int last_bit)
{
    if (run.kind == gate_kind::input || run.kind == gate_kind::constant) {
        throw std::logic_error("compiled_sim: unschedulable kind in run");
    }
    // One indirect call per kind-homogeneous run into the dispatched
    // host-SIMD backend (src/vec/): the backend folds the kind switch at
    // compile time and fuses the transition popcount into the same pass,
    // compiled once per ISA with real vector flags. Dense renumbering
    // makes the output slot the loop index, so value/toggle/last writes
    // stream sequentially.
    vec::gate_run_args args;
    args.kind = static_cast<int>(run.kind);
    args.in0 = sched_->in0.data();
    args.in1 = sched_->in1.data();
    args.in2 = sched_->in2.data();
    args.begin = run.begin;
    args.end = run.end;
    args.values = values_.data();
    args.toggles = toggles_.data();
    args.last = last_.data();
    args.toggle_mask = toggle_mask;
    args.last_word = last_word;
    args.last_bit = last_bit;
    vec::active().exec_gates(args);
}

void compiled_sim::apply(const std::vector<std::uint64_t>& input_words,
                         int count)
{
    const compiled_schedule& s = *sched_;
    if (input_words.size() != s.input_count * lane_words) {
        throw std::invalid_argument(
            "compiled_sim: input word count mismatch");
    }
    if (count < 1 || count > lane_capacity) {
        throw std::invalid_argument("compiled_sim: count out of range");
    }

    const lane_mask batch_mask = first_lanes(count);
    lane_mask toggle_mask = batch_mask;
    if (!initialized_) {
        toggle_mask[0] &= ~1ULL; // first vector ever: no transition
    }
    const int last_word = (count - 1) >> 6;
    const int last_bit = (count - 1) & 63;

    // Mode-specialized schedules assume the tied inputs really are
    // constant; a contradicting stimulus would silently undercount
    // toggles, so reject it -- naming the offending input the same way
    // the schedule verifier's diagnostics do.
    for (const auto& tc : s.tied_checks) {
        const std::uint64_t want = tc.value ? ~0ULL : 0ULL;
        const std::uint64_t* words =
            input_words.data() + tc.pos * lane_words;
        for (std::size_t k = 0; k < lane_words; ++k) {
            const std::uint64_t bad = (words[k] ^ want) & batch_mask[k];
            if (bad != 0) {
                const std::size_t lane = k * 64 + std::countr_zero(bad);
                std::ostringstream m;
                m << "compiled_sim: stimulus contradicts tied input ";
                if (!tc.name.empty()) {
                    m << "'" << tc.name << "' ";
                }
                m << "(net " << tc.net << ", input #" << tc.pos
                  << "): tied to " << (tc.value ? 1 : 0)
                  << " by this mode-specialized schedule but driven "
                  << (tc.value ? 0 : 1) << " in lane " << lane;
                throw std::invalid_argument(m.str());
            }
        }
    }

    const vec::kernel_table& kt = vec::active();
    for (const compiled_schedule::live_input& li : s.live_inputs) {
        const std::uint64_t* src = input_words.data() + li.pos * lane_words;
        std::uint64_t* dst = values_.data() + li.dense * lane_words;
        std::copy(src, src + lane_words, dst);
        toggles_[li.dense] += kt.shift_transitions(
            dst, toggle_mask.data(), lane_words, last_[li.dense]);
        last_[li.dense] =
            static_cast<std::uint8_t>((dst[last_word] >> last_bit) & 1ULL);
    }

    for (const compiled_run& run : s.runs) {
        dispatch_run(run, toggle_mask.data(), last_word, last_bit);
    }

    transitions_ +=
        static_cast<std::uint64_t>(count) - (initialized_ ? 0U : 1U);
    initialized_ = true;
}

bool compiled_sim::value(net_id id, int lane) const
{
    if (lane < 0 || lane >= lane_capacity) {
        throw std::invalid_argument("compiled_sim: lane out of range");
    }
    return lane_bit(sched_->dense_of.at(id), lane);
}

std::uint64_t compiled_sim::read_bus(const std::vector<net_id>& nets,
                                     int lane) const
{
    if (nets.size() > 64) {
        throw std::invalid_argument(
            "compiled_sim: bus wider than 64 nets cannot be packed");
    }
    if (lane < 0 || lane >= lane_capacity) {
        throw std::invalid_argument("compiled_sim: lane out of range");
    }
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < nets.size(); ++i) {
        out |= static_cast<std::uint64_t>(
                   lane_bit(sched_->dense_of.at(nets[i]), lane))
               << i;
    }
    return out;
}

std::uint64_t compiled_sim::total_toggles() const noexcept
{
    std::uint64_t total = 0;
    for (const std::uint64_t t : toggles_) {
        total += t;
    }
    return total;
}

double compiled_sim::switched_capacitance_ff(const tech_model& tech) const
{
    return schedule_switched_capacitance_ff(*sched_, toggles_, tech);
}

void compiled_sim::reset_stats()
{
    std::fill(toggles_.begin(), toggles_.end(), 0);
    transitions_ = 0;
}

sim_activity_state compiled_sim::save_activity() const
{
    sim_activity_state st;
    st.last = last_;
    st.toggles = toggles_;
    st.transitions = transitions_;
    st.initialized = initialized_;
    return st;
}

void compiled_sim::load_activity(const sim_activity_state& st)
{
    if (st.last.size() != last_.size()
        || st.toggles.size() != toggles_.size()) {
        throw std::invalid_argument(
            "compiled_sim: activity state does not fit this schedule");
    }
    last_ = st.last;
    toggles_ = st.toggles;
    transitions_ = st.transitions;
    initialized_ = st.initialized;
}

void compiled_sim::adopt_carry(const compiled_sim& src)
{
    if (sched_.get() != src.sched_.get()) {
        throw std::invalid_argument(
            "compiled_sim: adopt_carry across different schedules");
    }
    last_ = src.last_;
    initialized_ = src.initialized_;
}

void compiled_sim::merge_stats(const compiled_sim& src)
{
    if (sched_.get() != src.sched_.get()) {
        throw std::invalid_argument(
            "compiled_sim: merge_stats across different schedules");
    }
    for (std::size_t i = 0; i < toggles_.size(); ++i) {
        toggles_[i] += src.toggles_[i];
    }
    transitions_ += src.transitions_;
}

double schedule_switched_capacitance_ff(const compiled_schedule& s,
                                        const std::vector<std::uint64_t>&
                                            toggles,
                                        const tech_model& tech)
{
    if (toggles.size() != s.net_count) {
        throw std::invalid_argument(
            "schedule_switched_capacitance_ff: toggle array size mismatch");
    }
    // Accumulate in ORIGINAL net order: double addition is not
    // associative, and this sum must equal logic_sim's to the last bit
    // (the bench and the differential suite compare exactly).
    double total = 0.0;
    for (std::size_t id = 0; id < s.dense_of.size(); ++id) {
        const net_id slot = s.dense_of[id];
        if (toggles[slot] == 0) {
            continue;
        }
        total += static_cast<double>(toggles[slot])
                 * tech.gate_cap_ff(s.kinds[slot]);
    }
    return total;
}

// -- executor pool ------------------------------------------------------------

compiled_sim_pool& compiled_sim_pool::global()
{
    static compiled_sim_pool pool;
    return pool;
}

compiled_sim_pool::lease
compiled_sim_pool::acquire(std::shared_ptr<const compiled_schedule> sched)
{
    {
        const std::lock_guard<std::mutex> lock(mu_);
        const auto it = idle_.find(sched.get());
        if (it != idle_.end() && !it->second.empty()) {
            std::unique_ptr<compiled_sim> sim = std::move(it->second.back());
            it->second.pop_back();
            return lease(this, std::move(sim));
        }
    }
    return lease(this, std::make_unique<compiled_sim>(std::move(sched)));
}

void compiled_sim_pool::give_back(std::unique_ptr<compiled_sim> sim)
{
    const std::lock_guard<std::mutex> lock(mu_);
    idle_[&sim->schedule()].push_back(std::move(sim));
}

void compiled_sim_pool::lease::release() noexcept
{
    if (pool_ != nullptr && sim_ != nullptr) {
        // give_back only locks and moves; allocation failure aside it
        // cannot throw, and losing an executor on that path is benign.
        try {
            pool_->give_back(std::move(sim_));
        } catch (...) {
        }
    }
    pool_ = nullptr;
    sim_.reset();
}

// -- schedule persistence -----------------------------------------------------

namespace {

// Payload format version for "schedule" blobs; bump on any layout change
// (old entries then silently recompile).
constexpr std::uint32_t schedule_blob_version = 1;

constexpr std::uint8_t max_gate_kind =
    static_cast<std::uint8_t>(gate_kind::maj_g);

} // namespace

std::vector<std::uint8_t> serialize_schedule(const compiled_schedule& s)
{
    byte_writer w;
    w.u32(schedule_blob_version);
    w.u64(s.net_count);
    w.u64(s.input_count);
    w.vec_u32(s.dense_of);
    w.u64(s.kinds.size());
    for (const gate_kind k : s.kinds) {
        w.u8(static_cast<std::uint8_t>(k));
    }
    w.u64(s.live_inputs.size());
    for (const compiled_schedule::live_input& li : s.live_inputs) {
        w.u32(li.dense);
        w.u32(li.pos);
    }
    w.u64(s.runs.size());
    for (const compiled_run& r : s.runs) {
        w.u8(static_cast<std::uint8_t>(r.kind));
        w.u32(r.begin);
        w.u32(r.end);
    }
    w.vec_u32(s.in0);
    w.vec_u32(s.in1);
    w.vec_u32(s.in2);
    w.u64(s.tied_checks.size());
    for (const compiled_schedule::tied_check& tc : s.tied_checks) {
        w.u32(tc.pos);
        w.u8(tc.value ? 1 : 0);
        w.u32(tc.net);
        w.str(tc.name);
    }
    w.vec_u32(s.const_dense);
    w.bytes_u8(s.const_vals);
    w.u64(s.pruned_gates);
    return w.take();
}

std::optional<compiled_schedule>
deserialize_schedule(const std::vector<std::uint8_t>& bytes)
{
    compiled_schedule s;
    try {
        byte_reader r(bytes);
        if (r.u32() != schedule_blob_version) {
            return std::nullopt;
        }
        s.net_count = r.u64();
        s.input_count = r.u64();
        s.dense_of = r.vec_u32();
        const std::size_t n_kinds = r.u64();
        if (n_kinds > r.remaining()) {
            return std::nullopt;
        }
        s.kinds.resize(n_kinds);
        for (std::size_t i = 0; i < n_kinds; ++i) {
            const std::uint8_t k = r.u8();
            if (k > max_gate_kind) {
                return std::nullopt;
            }
            s.kinds[i] = static_cast<gate_kind>(k);
        }
        const std::size_t n_live = r.u64();
        if (n_live > r.remaining() / 8) {
            return std::nullopt;
        }
        s.live_inputs.resize(n_live);
        for (auto& li : s.live_inputs) {
            li.dense = r.u32();
            li.pos = r.u32();
        }
        const std::size_t n_runs = r.u64();
        if (n_runs > r.remaining() / 9) {
            return std::nullopt;
        }
        s.runs.resize(n_runs);
        for (compiled_run& run : s.runs) {
            const std::uint8_t k = r.u8();
            if (k > max_gate_kind) {
                return std::nullopt;
            }
            run.kind = static_cast<gate_kind>(k);
            run.begin = r.u32();
            run.end = r.u32();
        }
        s.in0 = r.vec_u32();
        s.in1 = r.vec_u32();
        s.in2 = r.vec_u32();
        const std::size_t n_tied = r.u64();
        if (n_tied > r.remaining() / 9) {
            return std::nullopt;
        }
        s.tied_checks.resize(n_tied);
        for (auto& tc : s.tied_checks) {
            tc.pos = r.u32();
            tc.value = r.u8() != 0;
            tc.net = r.u32();
            tc.name = r.str();
        }
        s.const_dense = r.vec_u32();
        s.const_vals = r.bytes_u8();
        s.pruned_gates = r.u64();
        if (!r.done()) {
            return std::nullopt;
        }
    } catch (const serial_error&) {
        return std::nullopt;
    }

    // Structural consistency: executing an inconsistent schedule would
    // index out of bounds, so reject anything the executor's assumptions
    // do not hold for (the deep soundness proof lives in the schedule
    // verifier; these checks bound every array access).
    const std::size_t n = s.net_count;
    const std::size_t sg = s.in0.size();
    if (s.dense_of.size() != n || s.kinds.size() != n
        || s.in1.size() != sg || s.in2.size() != sg || sg > n) {
        return std::nullopt;
    }
    for (const net_id d : s.dense_of) {
        if (d >= n) {
            return std::nullopt;
        }
    }
    for (std::size_t i = 0; i < sg; ++i) {
        if (s.in0[i] >= n || s.in1[i] >= n || s.in2[i] >= n) {
            return std::nullopt;
        }
    }
    std::uint32_t at = 0;
    for (const compiled_run& run : s.runs) {
        if (run.begin != at || run.end < run.begin || run.end > sg
            || run.kind == gate_kind::input
            || run.kind == gate_kind::constant) {
            return std::nullopt;
        }
        at = run.end;
    }
    if (at != sg) {
        return std::nullopt;
    }
    for (const auto& li : s.live_inputs) {
        if (li.dense >= n || li.pos >= s.input_count) {
            return std::nullopt;
        }
    }
    for (const auto& tc : s.tied_checks) {
        if (tc.pos >= s.input_count) {
            return std::nullopt;
        }
    }
    if (s.const_vals.size() != s.const_dense.size()) {
        return std::nullopt;
    }
    for (const net_id d : s.const_dense) {
        if (d >= n) {
            return std::nullopt;
        }
    }
    for (const std::uint8_t v : s.const_vals) {
        if (v > 1) {
            return std::nullopt;
        }
    }
    return s;
}

// -- schedule cache -----------------------------------------------------------

compiled_netlist_cache& compiled_netlist_cache::global()
{
    static compiled_netlist_cache cache;
    return cache;
}

namespace {

// FNV-1a over the structural content. Keying on content rather than
// address makes the cache safe against address reuse by short-lived
// netlists and lets identical structures share one schedule.
std::uint64_t structural_hash(const netlist& nl)
{
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t x) {
        h ^= x;
        h *= 1099511628211ULL;
    };
    for (const gate& g : nl.gates()) {
        mix(static_cast<std::uint64_t>(g.kind)
            | (static_cast<std::uint64_t>(g.aux) << 8));
        mix(g.in0);
        mix(g.in1);
        mix(g.in2);
    }
    for (const net_id id : nl.inputs()) {
        mix(id);
    }
    return h;
}

} // namespace

std::string compiled_netlist_cache::key_for(
    const netlist& nl, const std::vector<std::pair<net_id, bool>>& tied)
{
    std::ostringstream key;
    key << std::hex << structural_hash(nl) << std::dec << "|g" << nl.size()
        << "|i" << nl.inputs().size() << "|t";
    for (const auto& [id, value] : tied) {
        key << ":" << id << (value ? "+" : "-");
    }
    return key.str();
}

std::shared_ptr<const compiled_schedule>
compiled_netlist_cache::get(const netlist& nl,
                            const std::vector<std::pair<net_id, bool>>& tied)
{
    const std::string key = key_for(nl, tied);

    const std::lock_guard<std::mutex> lock(mu_);
    auto& slot = entries_[key];
    if (slot) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return slot;
    }

    // Memory miss: try the on-disk store before compiling. The key is
    // content-derived (structural hash + tie list), so a blob from any
    // process with the same netlist is the same schedule; a blob that
    // fails deserialization's consistency checks -- or, under
    // verify-on-compile, the full schedule verifier -- recompiles.
    const disk_store store = disk_store::from_env();
    if (store.enabled()) {
        if (const auto blob = store.load("schedule", key)) {
            if (auto sched = deserialize_schedule(*blob)) {
                bool sound = true;
                if (verify_on_compile()) {
                    lint_report rep =
                        verify_schedule(nl, *sched, tied, "schedule(disk)");
                    sound = rep.ok();
                }
                if (sound) {
                    disk_hits_.fetch_add(1, std::memory_order_relaxed);
                    slot = std::make_shared<const compiled_schedule>(
                        std::move(*sched));
                    return slot;
                }
            }
        }
    }

    compiles_.fetch_add(1, std::memory_order_relaxed);
    slot = std::make_shared<const compiled_schedule>(
        compile_netlist(nl, tied));
    if (store.enabled()) {
        store.store("schedule", key, serialize_schedule(*slot));
    }
    return slot;
}

} // namespace dvafs
