// Tests of the on-disk measurement cache (util/disk_store.h) and the
// serialization it is built on: byte-level round trips, frame integrity
// (truncated, corrupt and version-bumped files load as misses, never
// crash), atomic publication under concurrent writers, and the warm-start
// paths of the three cached kinds -- compiled schedules, mode frontiers
// (including prefix extension across cache instances) and the governor's
// teacher sweep -- each bit-identical to a cold measurement, every blob
// codec turning corrupt input into a miss, and the pinned bytes a cold
// admission writes.

#include "core/dvafs.h"

#include "util/disk_store.h"
#include "util/serial.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace dvafs {
namespace {

namespace fs = std::filesystem;

// A fresh private store root under the gtest temp dir.
std::string fresh_dir(const std::string& tag)
{
    const fs::path dir = fs::path(::testing::TempDir())
                         / ("dvafs_store_" + tag + "_"
                            + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

// Points DVAFS_CACHE_DIR at a private root for one test, restoring the
// previous value (or unset state) on destruction.
class scoped_cache_dir {
public:
    explicit scoped_cache_dir(const std::string& dir)
    {
        if (const char* old = std::getenv("DVAFS_CACHE_DIR")) {
            had_ = true;
            old_ = old;
        }
        ::setenv("DVAFS_CACHE_DIR", dir.c_str(), 1);
    }
    ~scoped_cache_dir()
    {
        if (had_) {
            ::setenv("DVAFS_CACHE_DIR", old_.c_str(), 1);
        } else {
            ::unsetenv("DVAFS_CACHE_DIR");
        }
    }
    scoped_cache_dir(const scoped_cache_dir&) = delete;
    scoped_cache_dir& operator=(const scoped_cache_dir&) = delete;

private:
    bool had_ = false;
    std::string old_;
};

std::vector<std::uint8_t> read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    EXPECT_TRUE(in) << path;
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    return bytes;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out) << path;
}

// -- serialization primitives -------------------------------------------------

TEST(serial, round_trips_every_field_type)
{
    byte_writer w;
    w.u8(0xab);
    w.u32(0xdeadbeefU);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);
    w.f64(0.1); // not exactly representable; must come back bit-exact
    w.str("frontier|key");
    w.bytes_u8({1, 2, 3});
    w.vec_u32({7, 8});
    w.vec_u64({9});
    w.vec_f64({-0.25, 1e300});

    byte_reader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefU);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), 0.1);
    EXPECT_EQ(r.str(), "frontier|key");
    EXPECT_EQ(r.bytes_u8(), (std::vector<std::uint8_t>{1, 2, 3}));
    std::vector<std::uint32_t> v32;
    std::vector<std::uint64_t> v64;
    std::vector<double> vf;
    r.vec_u32(v32);
    r.vec_u64(v64);
    r.vec_f64(vf);
    EXPECT_EQ(v32, (std::vector<std::uint32_t>{7, 8}));
    EXPECT_EQ(v64, (std::vector<std::uint64_t>{9}));
    EXPECT_EQ(vf, (std::vector<double>{-0.25, 1e300}));
    EXPECT_TRUE(r.done());
}

// One walk serves both directions: the record written through it comes
// back equal, and an enum byte above its maximum is malformed.
TEST(serial, one_walk_round_trips_a_record)
{
    struct record {
        bool on = false;
        sw_mode mode = sw_mode::w1x16;
        int bits = 0;
        std::vector<std::string> names;
    };
    const auto walk = [](auto& ar, auto& x) {
        ar.flag(x.on);
        ar.enum8(x.mode, sw_mode::w4x4);
        ar.i64(x.bits);
        ar.seq(x.names, [](auto& a, auto& n) { a.str(n); });
    };
    const record in{true, sw_mode::w4x4, -3, {"conv1", "", "fc5"}};
    const std::vector<std::uint8_t> blob = encode_blob(5, in, walk);

    record out;
    ASSERT_TRUE(decode_blob(blob, 5, out, walk));
    EXPECT_EQ(out.on, in.on);
    EXPECT_EQ(out.mode, in.mode);
    EXPECT_EQ(out.bits, in.bits);
    EXPECT_EQ(out.names, in.names);

    EXPECT_FALSE(decode_blob(blob, 6, out, walk)); // another version
    std::vector<std::uint8_t> bad = blob;
    bad[5] = static_cast<std::uint8_t>(sw_mode::w4x4) + 1; // the enum byte
    EXPECT_FALSE(decode_blob(bad, 5, out, walk));
}

TEST(serial, overruns_and_bad_lengths_throw)
{
    const std::vector<std::uint8_t> four(4, 0xff);
    byte_reader r(four);
    EXPECT_THROW((void)r.u64(), serial_error);

    // A length prefix larger than the bytes actually left must throw
    // before any allocation, not after a multi-GB resize.
    byte_writer w;
    w.u64(1ULL << 60);
    byte_reader r2(w.data());
    EXPECT_THROW((void)r2.str(), serial_error);
    byte_reader r3(w.data());
    std::vector<std::uint64_t> v;
    EXPECT_THROW(r3.vec_u64(v), serial_error);
}

TEST(fnv1a, known_vector_and_content_sensitivity)
{
    // FNV-1a 64-bit offset basis: the hash of the empty string.
    EXPECT_EQ(fnv1a_hash(std::string{}), 1469598103934665603ULL);
    EXPECT_NE(fnv1a_hash(std::string{"a"}), fnv1a_hash(std::string{"b"}));
    EXPECT_EQ(fnv1a_hash(std::string{"abc"}),
              fnv1a_hash(std::vector<std::uint8_t>{'a', 'b', 'c'}));
}

// -- the store itself ---------------------------------------------------------

TEST(disk_store, disabled_store_misses_and_drops_writes)
{
    const disk_store none;
    EXPECT_FALSE(none.enabled());
    EXPECT_EQ(none.load("schedule", "k"), std::nullopt);
    EXPECT_FALSE(none.store("schedule", "k", {1, 2, 3}));

    const disk_store from_unset = [] {
        ::unsetenv("DVAFS_CACHE_DIR");
        return disk_store::from_env();
    }();
    EXPECT_FALSE(from_unset.enabled());
}

TEST(disk_store, round_trips_payloads_per_kind_and_key)
{
    const disk_store store(fresh_dir("roundtrip"));
    const std::vector<std::uint8_t> payload = {0, 255, 42, 0, 7};
    EXPECT_TRUE(store.store("frontier", "key-1", payload));
    EXPECT_EQ(store.load("frontier", "key-1"), payload);

    // Absent keys and sibling kinds miss.
    EXPECT_EQ(store.load("frontier", "key-2"), std::nullopt);
    EXPECT_EQ(store.load("teacher", "key-1"), std::nullopt);

    // A second store replaces the entry.
    const std::vector<std::uint8_t> updated = {9, 9, 9};
    EXPECT_TRUE(store.store("frontier", "key-1", updated));
    EXPECT_EQ(store.load("frontier", "key-1"), updated);
}

TEST(disk_store, corrupt_files_load_as_misses)
{
    const disk_store store(fresh_dir("corrupt"));
    const std::vector<std::uint8_t> payload(64, 0x5a);
    ASSERT_TRUE(store.store("frontier", "key", payload));
    const std::string path = store.path_for("frontier", "key");
    const std::vector<std::uint8_t> good = read_file(path);
    ASSERT_EQ(store.load("frontier", "key"), payload);

    // Truncation at any point -- including an empty file.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{3}, good.size() / 2,
          good.size() - 1}) {
        std::vector<std::uint8_t> cut(good.begin(),
                                      good.begin()
                                          + static_cast<std::ptrdiff_t>(
                                              keep));
        write_file(path, cut);
        EXPECT_EQ(store.load("frontier", "key"), std::nullopt)
            << "kept " << keep << " bytes";
    }

    // Wrong magic.
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xff;
    write_file(path, bad);
    EXPECT_EQ(store.load("frontier", "key"), std::nullopt);

    // A store-format version bump (bytes 4..7, after the magic).
    bad = good;
    bad[4] += 1;
    write_file(path, bad);
    EXPECT_EQ(store.load("frontier", "key"), std::nullopt);

    // Payload bit rot fails the checksum.
    bad = good;
    bad.back() ^= 0x01;
    write_file(path, bad);
    EXPECT_EQ(store.load("frontier", "key"), std::nullopt);

    // A filename-hash collision surfaces as a key mismatch: the bytes of
    // one key's entry sitting at another key's path read as a miss.
    write_file(path, good);
    fs::copy_file(path, store.path_for("frontier", "other-key"),
                  fs::copy_options::overwrite_existing);
    EXPECT_EQ(store.load("frontier", "other-key"), std::nullopt);

    // The original, restored, still loads.
    EXPECT_EQ(store.load("frontier", "key"), payload);
}

TEST(disk_store, concurrent_writers_leave_one_complete_entry)
{
    const disk_store store(fresh_dir("race"));
    constexpr int writers = 8;
    std::vector<std::vector<std::uint8_t>> payloads(writers);
    for (int i = 0; i < writers; ++i) {
        payloads[i].assign(4096, static_cast<std::uint8_t>(i + 1));
    }
    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (int i = 0; i < writers; ++i) {
        threads.emplace_back(
            [&, i] { store.store("schedule", "shared", payloads[i]); });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    // Atomic rename: the surviving file is some writer's payload in full,
    // never an interleaving.
    const auto got = store.load("schedule", "shared");
    ASSERT_TRUE(got.has_value());
    bool complete = false;
    for (const auto& p : payloads) {
        complete = complete || *got == p;
    }
    EXPECT_TRUE(complete);
}

// -- quarantine, retry and fault injection ------------------------------------

// A scripted fault hook: serves the queued verdicts one physical attempt
// at a time, then disk_fault::none forever.
class script_hook : public disk_fault_hook {
public:
    explicit script_hook(std::vector<disk_fault> verdicts)
        : verdicts_(std::move(verdicts))
    {
    }
    disk_fault on_disk_op(disk_op, const std::string&,
                          const std::string&) override
    {
        const std::size_t i = next_.fetch_add(1);
        return i < verdicts_.size() ? verdicts_[i] : disk_fault::none;
    }

private:
    std::vector<disk_fault> verdicts_;
    std::atomic<std::size_t> next_{0};
};

// Satellite: a store pre-corrupted on disk (bit rot, a format bump, a
// truncation) quarantines exactly the damaged entries -- renamed to
// <name>.bad, counted in the stats, re-measured once -- while a
// filename-hash collision (a live entry for another key) is left alone.
TEST(disk_store, pre_corrupted_entries_are_quarantined_once)
{
    const disk_store store(fresh_dir("quarantine"));
    const std::vector<std::uint8_t> payload(48, 0x3c);
    for (const char* key : {"rot", "bump", "cut", "intact"}) {
        ASSERT_TRUE(store.store("teacher", key, payload));
    }

    // Damage three entries the way a bad disk would.
    std::vector<std::uint8_t> bytes =
        read_file(store.path_for("teacher", "rot"));
    bytes.back() ^= 0x01; // payload bit rot -> checksum
    write_file(store.path_for("teacher", "rot"), bytes);
    bytes = read_file(store.path_for("teacher", "bump"));
    bytes[4] += 1; // store-format version bump
    write_file(store.path_for("teacher", "bump"), bytes);
    bytes = read_file(store.path_for("teacher", "cut"));
    bytes.resize(bytes.size() / 2); // truncation
    write_file(store.path_for("teacher", "cut"), bytes);
    // And plant a collision: a valid entry for another key at this path.
    fs::copy_file(store.path_for("teacher", "intact"),
                  store.path_for("teacher", "collided"),
                  fs::copy_options::overwrite_existing);

    disk_store::reset_stats();
    for (const char* key : {"rot", "bump", "cut"}) {
        EXPECT_EQ(store.load("teacher", key), std::nullopt) << key;
        EXPECT_FALSE(fs::exists(store.path_for("teacher", key))) << key;
        EXPECT_TRUE(
            fs::exists(store.path_for("teacher", key) + ".bad"))
            << key;
    }
    EXPECT_EQ(store.load("teacher", "collided"), std::nullopt);
    // The collided file is someone else's live entry: still in place.
    EXPECT_TRUE(fs::exists(store.path_for("teacher", "collided")));
    EXPECT_FALSE(
        fs::exists(store.path_for("teacher", "collided") + ".bad"));
    EXPECT_EQ(store.load("teacher", "intact"), payload);

    const disk_store_stats st = disk_store::stats();
    EXPECT_EQ(st.quarantined, 3U);
    EXPECT_EQ(st.loads, 5U);
    EXPECT_EQ(st.hits, 1U);

    // Quarantine means re-measured exactly once: the second probe of a
    // damaged key is a plain absent-file miss, and a fresh store heals it.
    EXPECT_EQ(store.load("teacher", "rot"), std::nullopt);
    EXPECT_EQ(disk_store::stats().quarantined, 3U);
    ASSERT_TRUE(store.store("teacher", "rot", payload));
    EXPECT_EQ(store.load("teacher", "rot"), payload);
}

TEST(disk_store, transient_faults_retry_with_backoff)
{
    const disk_store store(fresh_dir("transient"));
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
    ASSERT_TRUE(store.store("schedule", "key", payload));

    // Two transient failures: the third (last) attempt goes through.
    disk_store::reset_stats();
    {
        script_hook hook({disk_fault::transient, disk_fault::transient});
        const scoped_disk_fault_hook guard(&hook);
        EXPECT_EQ(store.load("schedule", "key"), payload);
    }
    disk_store_stats st = disk_store::stats();
    EXPECT_EQ(st.retries, 2U);
    EXPECT_EQ(st.hits, 1U);
    EXPECT_EQ(st.faults_injected, 2U);

    // One more transient than the retry budget: the load degrades to a
    // miss -- and the entry is NOT quarantined (nothing was read).
    disk_store::reset_stats();
    {
        script_hook hook(std::vector<disk_fault>(
            disk_store::max_retries + 1, disk_fault::transient));
        const scoped_disk_fault_hook guard(&hook);
        EXPECT_EQ(store.load("schedule", "key"), std::nullopt);
    }
    st = disk_store::stats();
    EXPECT_EQ(st.retries,
              static_cast<std::uint64_t>(disk_store::max_retries));
    EXPECT_EQ(st.hits, 0U);
    EXPECT_EQ(st.quarantined, 0U);
    EXPECT_EQ(store.load("schedule", "key"), payload);

    // Transient store failures retry the same way.
    disk_store::reset_stats();
    {
        script_hook hook({disk_fault::transient});
        const scoped_disk_fault_hook guard(&hook);
        EXPECT_TRUE(store.store("schedule", "key2", payload));
    }
    EXPECT_EQ(disk_store::stats().retries, 1U);
    EXPECT_EQ(store.load("schedule", "key2"), payload);
}

TEST(disk_store, injected_corruption_drives_the_quarantine_path)
{
    const disk_store store(fresh_dir("inject_corrupt"));
    const std::vector<std::uint8_t> payload(32, 0x77);
    ASSERT_TRUE(store.store("frontier", "key", payload));

    disk_store::reset_stats();
    {
        script_hook hook({disk_fault::corrupt});
        const scoped_disk_fault_hook guard(&hook);
        EXPECT_EQ(store.load("frontier", "key"), std::nullopt);
    }
    const disk_store_stats st = disk_store::stats();
    EXPECT_EQ(st.quarantined, 1U);
    EXPECT_EQ(st.faults_injected, 1U);
    // The on-disk file really was moved aside, and a clean re-store heals.
    EXPECT_FALSE(fs::exists(store.path_for("frontier", "key")));
    EXPECT_TRUE(fs::exists(store.path_for("frontier", "key") + ".bad"));
    ASSERT_TRUE(store.store("frontier", "key", payload));
    EXPECT_EQ(store.load("frontier", "key"), payload);
}

TEST(disk_store, enospc_fails_the_store_terminally)
{
    const disk_store store(fresh_dir("enospc"));
    const std::vector<std::uint8_t> old_payload = {1, 1, 1};
    const std::vector<std::uint8_t> new_payload = {2, 2, 2};
    ASSERT_TRUE(store.store("schedule", "key", old_payload));

    disk_store::reset_stats();
    {
        script_hook hook({disk_fault::enospc});
        const scoped_disk_fault_hook guard(&hook);
        EXPECT_FALSE(store.store("schedule", "key", new_payload));
    }
    const disk_store_stats st = disk_store::stats();
    EXPECT_EQ(st.store_failures, 1U);
    // A full disk is not retried.
    EXPECT_EQ(st.retries, 0U);
    // The previous entry survives the failed overwrite.
    EXPECT_EQ(store.load("schedule", "key"), old_payload);
}

TEST(disk_store, slow_reads_only_cost_wall_clock)
{
    const disk_store store(fresh_dir("slow"));
    const std::vector<std::uint8_t> payload = {9, 8, 7};
    ASSERT_TRUE(store.store("schedule", "key", payload));

    disk_store::reset_stats();
    script_hook hook({disk_fault::slow_read});
    const scoped_disk_fault_hook guard(&hook);
    EXPECT_EQ(store.load("schedule", "key"), payload);
    const disk_store_stats st = disk_store::stats();
    EXPECT_EQ(st.hits, 1U);
    EXPECT_EQ(st.retries, 0U);
    EXPECT_EQ(st.faults_injected, 1U);
}

// -- compiled schedules -------------------------------------------------------

TEST(schedule_persistence, round_trip_preserves_the_schedule)
{
    const dvafs_multiplier m(8);
    const auto sched = compiled_netlist_cache::global().get(
        m.net(), m.tied_inputs(sw_mode::w2x8));
    const std::vector<std::uint8_t> bytes = serialize_schedule(*sched);
    const auto back = deserialize_schedule(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->net_count, sched->net_count);
    EXPECT_EQ(back->input_count, sched->input_count);
    EXPECT_EQ(back->scheduled_gates(), sched->scheduled_gates());
    EXPECT_EQ(back->pruned_gates, sched->pruned_gates);
    // Full structural equality via the serialized form.
    EXPECT_EQ(serialize_schedule(*back), bytes);
}

TEST(schedule_persistence, cache_warm_starts_from_disk)
{
    // Built before the store exists: finalize() compiles through the
    // global cache, which must not pre-populate the test's private dir.
    const dvafs_multiplier m(8);
    const std::string dir = fresh_dir("schedule");
    const scoped_cache_dir env(dir);

    compiled_netlist_cache cold;
    const auto compiled = cold.get(m.net());
    EXPECT_EQ(cold.stats().compiles, 1u);
    EXPECT_EQ(cold.stats().disk_hits, 0u);

    compiled_netlist_cache warm;
    const auto loaded = warm.get(m.net());
    EXPECT_EQ(warm.stats().compiles, 0u);
    EXPECT_EQ(warm.stats().disk_hits, 1u);
    EXPECT_EQ(serialize_schedule(*loaded), serialize_schedule(*compiled));
}

// -- mode frontiers -----------------------------------------------------------

frontier_config quick_frontier(std::uint64_t vectors)
{
    frontier_config cfg;
    cfg.vectors = vectors;
    return cfg;
}

void expect_frontier_eq(const mode_frontier& a, const mode_frontier& b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const frontier_point& p = a.points[i];
        const frontier_point& q = b.points[i];
        EXPECT_TRUE(p.spec == q.spec) << "point " << i;
        EXPECT_EQ(p.vdd, q.vdd) << "point " << i;
        EXPECT_EQ(p.f_mhz, q.f_mhz) << "point " << i;
        EXPECT_EQ(p.lanes, q.lanes) << "point " << i;
        EXPECT_EQ(p.precision_bits, q.precision_bits) << "point " << i;
        EXPECT_EQ(p.mean_cap_ff, q.mean_cap_ff) << "point " << i;
        EXPECT_EQ(p.crit_path_ps, q.crit_path_ps) << "point " << i;
        EXPECT_EQ(p.activity_divisor, q.activity_divisor)
            << "point " << i;
    }
    EXPECT_EQ(a.pareto, b.pareto);
    EXPECT_EQ(a.nominal, b.nominal);
}

TEST(frontier_persistence, warm_start_is_bit_identical)
{
    const std::string dir = fresh_dir("frontier");
    const scoped_cache_dir env(dir);
    const tech_model& tech = tech_28nm_fdsoi();
    const envision_calibration& cal = default_envision_calibration();
    const frontier_config cfg = quick_frontier(120);

    frontier_cache cold;
    const auto measured = cold.get(cfg, tech, cal);
    EXPECT_EQ(cold.stats().measured, 1u);
    EXPECT_EQ(cold.stats().disk_hits, 0u);

    // A fresh cache instance -- a new process, effectively -- must serve
    // the same frontier from disk without re-measuring.
    frontier_cache warm;
    const auto from_disk = warm.get(cfg, tech, cal);
    EXPECT_EQ(warm.stats().measured, 0u);
    EXPECT_EQ(warm.stats().extended, 0u);
    EXPECT_EQ(warm.stats().disk_hits, 1u);
    expect_frontier_eq(*measured, *from_disk);
}

TEST(frontier_persistence, on_disk_state_extends_bit_identically)
{
    const std::string dir = fresh_dir("frontier_state");
    const scoped_cache_dir env(dir);
    const tech_model& tech = tech_28nm_fdsoi();
    const envision_calibration& cal = default_envision_calibration();

    {
        frontier_cache cold;
        (void)cold.get(quick_frontier(120), tech, cal);
        EXPECT_EQ(cold.stats().measured, 1u);
    }

    // A new cache asking for more vectors finds only the persisted
    // 120-vector measurement state and extends it -- and the extension
    // must be bit-identical to a from-scratch 240-vector measurement.
    const frontier_config longer = quick_frontier(240);
    frontier_cache grown;
    const auto extended = grown.get(longer, tech, cal);
    EXPECT_EQ(grown.stats().measured, 0u);
    EXPECT_EQ(grown.stats().extended, 1u);

    const mode_frontier fresh =
        measure_mode_frontier(longer, tech, cal);
    expect_frontier_eq(fresh, *extended);
}

// -- teacher sweeps -----------------------------------------------------------

TEST(teacher_persistence, warm_governor_matches_cold_run)
{
    const std::string dir = fresh_dir("teacher");
    const scoped_cache_dir env(dir);

    scenario sc;
    sc.name = "warm-vs-cold";
    sc.networks.push_back(make_lenet5({.seed = 7}));
    scenario_phase ph;
    ph.name = "steady";
    ph.frames = 10;
    ph.target_fps = 25.0;
    ph.accuracy_budget = 0.04;
    sc.phases.push_back(ph);

    const envision_model model;
    stream_result res[2];
    for (int r = 0; r < 2; ++r) {
        governor_config g;
        g.sweep.images = 8;
        g.sweep.max_bits = 8;
        g.frontier.vectors = 200;
        stream_engine engine(model, g, stream_config{});
        res[r] = engine.run(sc);
    }

    // The second run admits the network from the persisted teacher sweep;
    // warm results must equal the cold measurement exactly.
    EXPECT_EQ(res[0].total_energy_mj, res[1].total_energy_mj);
    EXPECT_EQ(res[0].stream_accuracy, res[1].stream_accuracy);
    ASSERT_EQ(res[0].replans.size(), res[1].replans.size());
    for (std::size_t i = 0; i < res[0].replans.size(); ++i) {
        EXPECT_EQ(res[0].replans[i].plan.total_energy_mj,
                  res[1].replans[i].plan.total_energy_mj);
        EXPECT_EQ(res[0].replans[i].plan.total_time_ms,
                  res[1].replans[i].plan.total_time_ms);
    }
    // The sweep actually landed in the store.
    EXPECT_TRUE(fs::exists(fs::path(dir) / "teacher"));
}

TEST(teacher_persistence, sweep_compute_mode_is_part_of_the_key)
{
    const std::string dir = fresh_dir("teacher_compute");
    const scoped_cache_dir env(dir);
    const network net = make_lenet5({.seed = 7});
    const envision_model model;
    const auto governor_at = [&](compute_mode compute) {
        governor_config g;
        g.sweep.images = 8;
        g.sweep.max_bits = 8;
        g.sweep.compute = compute;
        g.frontier.vectors = 200;
        return adaptive_governor(model, g);
    };

    (void)governor_at(compute_mode::f32).prepare(net); // stores the f32 sweep
    const std::uint64_t hits = disk_store::stats().hits;
    // An i8 sweep measures a different engine: it must not load the f32
    // entry...
    (void)governor_at(compute_mode::i8).prepare(net);
    EXPECT_EQ(disk_store::stats().hits, hits);
    // ...while a second f32 governor does.
    (void)governor_at(compute_mode::f32).prepare(net);
    EXPECT_EQ(disk_store::stats().hits, hits + 1);
}

// -- corrupt blobs and the pinned wire layout ---------------------------------

// One cache kind's codec under corruption. `enum_changed` and
// `seq_shortened` re-encode the record behind `blob` with one enum field
// changed and with one sequence an element shorter: their first byte of
// difference from `blob` is that enum byte and that sequence's count.
struct codec_case {
    std::string kind;
    std::function<bool(const std::vector<std::uint8_t>&)> decodes;
    std::vector<std::uint8_t> blob;
    std::vector<std::uint8_t> enum_changed;
    std::uint8_t enum_max = 0;
    std::vector<std::uint8_t> seq_shortened;
};

std::size_t first_difference(const std::vector<std::uint8_t>& a,
                             const std::vector<std::uint8_t>& b)
{
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i]) {
        ++i;
    }
    return i;
}

sw_mode other_mode(sw_mode m)
{
    return m == sw_mode::w4x4 ? sw_mode::w1x16 : sw_mode::w4x4;
}

std::vector<codec_case> codec_cases()
{
    std::vector<codec_case> cases;
    constexpr auto max_mode = static_cast<std::uint8_t>(sw_mode::w4x4);

    const dvafs_multiplier m(8);
    const auto sched = compiled_netlist_cache::global().get(m.net());
    compiled_schedule kind_changed = *sched;
    kind_changed.kinds[0] = kind_changed.kinds[0] == gate_kind::maj_g
                                ? gate_kind::buf
                                : gate_kind::maj_g;
    compiled_schedule fewer_runs = *sched;
    fewer_runs.runs.pop_back();
    cases.push_back(
        {"schedule",
         [](const std::vector<std::uint8_t>& b) {
             return deserialize_schedule(b).has_value();
         },
         serialize_schedule(*sched), serialize_schedule(kind_changed),
         static_cast<std::uint8_t>(gate_kind::maj_g),
         serialize_schedule(fewer_runs)});

    frontier_config cfg;
    cfg.width = 8;
    cfg.vectors = 16;
    frontier_measurement st;
    const mode_frontier mf = measure_mode_frontier_with_state(
        cfg, tech_28nm_fdsoi(), default_envision_calibration(), st);
    mode_frontier mf_enum = mf;
    mf_enum.points[0].spec.mode = other_mode(mf.points[0].spec.mode);
    mode_frontier mf_seq = mf;
    mf_seq.points.pop_back();
    cases.push_back({"frontier",
                     [cfg](const std::vector<std::uint8_t>& b) {
                         return deserialize_frontier(b, cfg).has_value();
                     },
                     serialize_frontier(mf), serialize_frontier(mf_enum),
                     max_mode, serialize_frontier(mf_seq)});

    frontier_measurement st_enum = st;
    st_enum.points[0].spec.mode = other_mode(st.points[0].spec.mode);
    frontier_measurement st_seq = st;
    st_seq.points.pop_back();
    cases.push_back({"frontier_state",
                     [](const std::vector<std::uint8_t>& b) {
                         return deserialize_frontier_state(b).has_value();
                     },
                     serialize_frontier_state(st),
                     serialize_frontier_state(st_enum), max_mode,
                     serialize_frontier_state(st_seq)});

    const network net = make_lenet5({.seed = 7});
    const envision_model model;
    governor_config g;
    g.sweep.images = 8;
    g.frontier.vectors = 200;
    adaptive_governor gov(model, g);
    const adaptive_governor::network_state& ts = gov.prepare(net);
    adaptive_governor::network_state ts_enum = ts;
    layer_frontier_point& p0 = ts_enum.frontiers[0].points[0];
    p0.spec.mode = other_mode(p0.spec.mode);
    adaptive_governor::network_state ts_seq = ts;
    ts_seq.frontiers[0].points.pop_back();
    const std::size_t layers = net.weighted_layers().size();
    cases.push_back({"teacher",
                     [layers](const std::vector<std::uint8_t>& b) {
                         adaptive_governor::network_state out;
                         return deserialize_teacher(b, layers, out);
                     },
                     serialize_teacher(ts), serialize_teacher(ts_enum),
                     max_mode, serialize_teacher(ts_seq)});
    return cases;
}

TEST(blob_codecs, corrupt_blobs_of_every_kind_decode_as_misses)
{
    // No store involved: a DVAFS_CACHE_DIR from the environment must not
    // serve the teacher sweep below.
    const scoped_cache_dir env("");
    for (const codec_case& c : codec_cases()) {
        SCOPED_TRACE(c.kind);
        ASSERT_TRUE(c.decodes(c.blob));

        for (std::size_t keep = 0; keep < c.blob.size(); ++keep) {
            const std::vector<std::uint8_t> cut(
                c.blob.begin(),
                c.blob.begin() + static_cast<std::ptrdiff_t>(keep));
            ASSERT_FALSE(c.decodes(cut)) << "kept " << keep << " bytes";
        }

        std::vector<std::uint8_t> longer = c.blob;
        longer.push_back(0);
        EXPECT_FALSE(c.decodes(longer)) << "one trailing byte";

        std::vector<std::uint8_t> bad_enum = c.blob;
        const std::size_t at = first_difference(c.blob, c.enum_changed);
        ASSERT_LT(at, c.blob.size());
        bad_enum[at] = static_cast<std::uint8_t>(c.enum_max + 1);
        EXPECT_FALSE(c.decodes(bad_enum)) << "enum byte at " << at;

        // A 2^62 count: the decoder must overrun and miss, not reserve
        // (which would throw std::length_error or bad_alloc out of it).
        std::vector<std::uint8_t> huge = c.blob;
        const std::size_t count_at = first_difference(c.blob,
                                                      c.seq_shortened);
        ASSERT_LE(count_at + 8, c.blob.size());
        for (int i = 0; i < 8; ++i) {
            huge[count_at + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>((1ULL << 62) >> (8 * i));
        }
        EXPECT_FALSE(c.decodes(huge)) << "count at " << count_at;
    }
}

// Every file a small cold admission writes (LeNet-5, 8 teacher images, a
// 200-vector frontier), pinned by its FNV-1a: a codec change that moves
// any byte of any kind, or of the store's frame, fails here instead of
// silently turning every existing cache into a re-measure.
TEST(blob_codecs, cold_admission_writes_pinned_bytes)
{
    const std::map<std::string, std::uint64_t> pinned = {
        {"frontier/1a1d213aa21bba5f.bin", 0x1c66add58031b5ddULL},
        {"frontier_state/af27be14176999c5.bin", 0x6f696d636a14537bULL},
        {"schedule/275db9a83fbf2b5c.bin", 0x398e9cb68968be6aULL},
        {"schedule/4eff17c994845d04.bin", 0xda01e06803cbfc17ULL},
        {"schedule/c32f61377ab30cf2.bin", 0x083d4d560144b630ULL},
        {"schedule/c4c243b375b46ffe.bin", 0xb0bd1882640937ebULL},
        {"schedule/d13eaa233b3bed0a.bin", 0x7ffc763f4a62fe3cULL},
        {"schedule/fd7170e01b2771ee.bin", 0x3124dba5423f6213ULL},
        {"schedule/ffb9e336df0689f4.bin", 0xc6725793849e5e20ULL},
        {"teacher/c7641b41e0248eca.bin", 0x07b7bd9459a6d2ddULL},
    };
    const std::string dir = fresh_dir("pinned");
    const scoped_cache_dir env(dir);
    // Run alone, as ctest runs each test, the process-wide schedule and
    // frontier caches start empty and the admission writes every pinned
    // file; after other tests have warmed them, fewer files are written
    // and only those are checked.
    const auto sc = compiled_netlist_cache::global().stats();
    const auto fc = frontier_cache::global().stats();
    const bool cold = sc.hits + sc.disk_hits + sc.compiles + fc.hits
                          + fc.disk_hits + fc.extended + fc.measured
                      == 0;

    const network net = make_lenet5({.seed = 7});
    const envision_model model;
    governor_config g;
    g.sweep.images = 8;
    g.frontier.vectors = 200;
    adaptive_governor gov(model, g);
    (void)gov.prepare(net);

    std::map<std::string, std::uint64_t> written;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
        if (e.is_regular_file()) {
            written[fs::relative(e.path(), dir).generic_string()] =
                fnv1a_hash(read_file(e.path().string()));
        }
    }
    EXPECT_EQ(written.count("teacher/c7641b41e0248eca.bin"), 1U);
    if (cold) {
        EXPECT_EQ(written.size(), pinned.size());
    }
    for (const auto& [path, digest] : written) {
        const auto it = pinned.find(path);
        ASSERT_NE(it, pinned.end()) << path;
        EXPECT_EQ(digest, it->second) << path;
    }
}

} // namespace
} // namespace dvafs
