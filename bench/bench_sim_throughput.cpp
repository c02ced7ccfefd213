// Gate-simulation throughput: the compiled 512-lane engine against the
// scalar oracle (logic_sim) on the Fig. 2 multiplier sweep -- the exact
// measurement loop behind every energy figure -- plus the threaded sweep
// engine's wall-clock at 1, 2 and 4 workers.
//
// Each of the Table I operating points is driven with the identical
// seeded operand stream (warm-up + reset, the sim_engine contract)
// through the scalar oracle and through compiled_sim over the point's
// mode-specialized schedule; toggles and switched capacitance must agree
// exactly on every point's full stream (exit 1 on any mismatch -- a
// speedup over a wrong simulation is meaningless). Every engine runs
// `--reps` times (default 3) and scores its best time, so a noisy
// neighbour on a shared runner cannot sink one side of a ratio.
// `--min-speedup <x>` gates the aggregate sweep speedup of the compiled
// engine over the scalar oracle (exit 3 below the floor). The threaded
// sweep (sim_engine::run over the Table I grid, 2000 vectors per point)
// must return the same results at every worker count (exit 1 otherwise).
// `--json <path>` writes the machine-readable records
// (docs/bench_schema.md); every record carries the active host-SIMD
// backend in its "isa" field. `--isa <name>` forces a specific vec
// backend (exit 1 when unavailable); before any timing the bench replays
// a sweep slice under every available backend against the forced-scalar
// reference and exits 1 on the slightest toggle or capacitance
// disagreement -- a throughput number from a non-bit-identical backend is
// meaningless.

#include "core/dvafs.h"

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <vector>

using namespace dvafs;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

struct point_stream {
    operating_point_spec spec;
    std::uint64_t vectors = 1 << 15;
    std::uint64_t seed = 42;
};

struct activity {
    std::uint64_t toggles = 0;
    double cap_ff = 0.0;
    double seconds = 0.0;
};

// Structural DAS gating applies in 1xW only (the sim_engine rule).
int das_keep_of(const dvafs_multiplier& mult,
                const operating_point_spec& spec)
{
    return spec.mode == sw_mode::w1x16 ? spec.keep_bits : mult.width();
}

// Draws sim_engine::measure's operand stream for one point -- a
// full-precision warm-up pair, then sc.vectors counted pairs, truncated
// per lane in subword modes below lane precision -- and hands it to
// `sink(a, b, count, warm_up)` in batches of at most `lanes` pairs.
template <class Sink>
void draw_stream(const dvafs_multiplier& mult, const point_stream& sc,
                 int lanes, const Sink& sink)
{
    const int w = mult.width();
    const bool truncate = sc.spec.mode != sw_mode::w1x16
                          && sc.spec.keep_bits < mult.lane_width(sc.spec.mode);
    pcg32 rng(sc.seed);
    const std::uint64_t mask = low_mask(w);
    std::vector<std::uint64_t> a(static_cast<std::size_t>(lanes), 0);
    std::vector<std::uint64_t> b(static_cast<std::size_t>(lanes), 0);

    a[0] = rng.next_u64() & mask;
    b[0] = rng.next_u64() & mask;
    sink(a.data(), b.data(), 1, true);
    for (std::uint64_t done = 0; done < sc.vectors;) {
        const int count = static_cast<int>(std::min<std::uint64_t>(
            static_cast<std::uint64_t>(lanes), sc.vectors - done));
        for (int lane = 0; lane < count; ++lane) {
            std::uint64_t av = rng.next_u64() & mask;
            std::uint64_t bv = rng.next_u64() & mask;
            if (truncate) {
                av = subword_truncate(static_cast<std::uint16_t>(av),
                                      sc.spec.mode, sc.spec.keep_bits);
                bv = subword_truncate(static_cast<std::uint16_t>(bv),
                                      sc.spec.mode, sc.spec.keep_bits);
            }
            a[static_cast<std::size_t>(lane)] = av;
            b[static_cast<std::size_t>(lane)] = bv;
        }
        sink(a.data(), b.data(), count, false);
        done += static_cast<std::uint64_t>(count);
    }
}

// The scalar oracle over the full netlist, one vector per apply. The
// simulator is constructed before the clock starts, as on the compiled
// side.
activity run_scalar(const dvafs_multiplier& mult, const tech_model& tech,
                    const point_stream& sc)
{
    const int das_keep = das_keep_of(mult, sc.spec);
    logic_sim sim(mult.net());
    const auto t0 = std::chrono::steady_clock::now();
    draw_stream(mult, sc, 1,
                [&](const std::uint64_t* a, const std::uint64_t* b, int,
                    bool warm_up) {
                    sim.apply(mult.input_vector_for(sc.spec.mode, das_keep,
                                                    a[0], b[0]));
                    if (warm_up) {
                        sim.reset_stats();
                    }
                });
    activity act;
    act.seconds = seconds_since(t0);
    act.toggles = sim.total_toggles();
    act.cap_ff = sim.switched_capacitance_ff(tech);
    return act;
}

// The compiled engine on the same stream: a mode-specialized schedule
// (structural ties folded, static cones pruned) executed 512 vectors per
// pass. The schedule lookup happens before the clock starts. Statistics
// must equal run_scalar's bit for bit.
activity run_compiled(const dvafs_multiplier& mult, const tech_model& tech,
                      const point_stream& sc)
{
    const int das_keep = das_keep_of(mult, sc.spec);
    compiled_sim sim(compiled_netlist_cache::global().get(
        mult.net(), mult.tied_inputs(sc.spec.mode, das_keep)));
    std::vector<std::uint64_t> words;
    const auto t0 = std::chrono::steady_clock::now();
    draw_stream(mult, sc, compiled_sim::lane_capacity,
                [&](const std::uint64_t* a, const std::uint64_t* b,
                    int count, bool warm_up) {
                    mult.pack_input_words(sc.spec.mode, das_keep, a, b,
                                          count, words);
                    sim.apply(words, count);
                    if (warm_up) {
                        sim.reset_stats();
                    }
                });
    activity act;
    act.seconds = seconds_since(t0);
    act.toggles = sim.total_toggles();
    act.cap_ff = sim.switched_capacitance_ff(tech);
    return act;
}

std::string rate_str(double vectors_per_s)
{
    return fmt_fixed(vectors_per_s * 1e-6, 3) + "M";
}

// Repeats a runner, keeping the fastest wall time (statistics are
// identical across repetitions by the determinism contract).
template <class Runner>
activity best_of(int reps, const Runner& runner)
{
    activity best = runner();
    for (int r = 1; r < reps; ++r) {
        const activity a = runner();
        if (a.seconds < best.seconds) {
            best = a;
        }
    }
    return best;
}

// Pre-timing cross-backend check: a short slice of the first sweep point
// through the compiled engine under every available vec backend must
// reproduce the forced-scalar toggles and switched capacitance exactly.
// Restores the previously active backend before returning.
bool vec_backends_identical(const dvafs_multiplier& mult,
                            const tech_model& tech)
{
    point_stream sc;
    sc.spec = kparam_sweep_points(16).front();
    sc.vectors = 1 << 10;
    const vec::isa restore = vec::active_isa();
    bool ok = true;
    vec::force_isa(vec::isa::scalar);
    const activity ref = run_compiled(mult, tech, sc);
    for (const vec::isa level : vec::available()) {
        vec::force_isa(level);
        const activity c = run_compiled(mult, tech, sc);
        if (c.toggles != ref.toggles || c.cap_ff != ref.cap_ff) {
            std::cerr << "FAIL: vec backend " << vec::isa_name(level)
                      << " disagrees with the scalar overlay\n";
            ok = false;
        }
    }
    vec::force_isa(restore);
    return ok;
}

// Threaded sweep health: sim_engine::run over the Table I grid at 1, 2
// and 4 workers, best of `reps` each. Every worker count must reproduce
// the single-worker results exactly.
bool time_threaded_sweep(const dvafs_multiplier& mult,
                         const tech_model& tech, int reps,
                         bench_reporter& report)
{
    const std::vector<operating_point_spec> grid = kparam_sweep_points(16);
    std::cout << "  threaded sweep, Table I grid, 2000 vectors/point:\n";
    sweep_report first;
    bool ok = true;
    for (const unsigned threads : {1U, 2U, 4U}) {
        sim_engine_config cfg;
        cfg.vectors = 2000;
        cfg.threads = threads;
        const sim_engine engine(cfg);
        sweep_report rep;
        const activity best = best_of(reps, [&] {
            const auto t0 = std::chrono::steady_clock::now();
            rep = engine.run(mult, tech, grid);
            activity a;
            a.seconds = seconds_since(t0);
            return a;
        });
        if (threads == 1) {
            first = rep;
        }
        for (std::size_t i = 0; i < grid.size(); ++i) {
            if (rep.points[i].toggles != first.points[i].toggles
                || rep.points[i].mean_cap_ff != first.points[i].mean_cap_ff) {
                std::cerr << "FAIL: threaded sweep at " << threads
                          << " workers disagrees at " << grid[i].label()
                          << "\n";
                ok = false;
            }
        }
        std::cout << "    " << threads << " worker(s): "
                  << fmt_fixed(best.seconds * 1e3, 1) << " ms for "
                  << rep.points.size() << " points\n";
        report.add("engine.sweep_ms." + std::to_string(threads)
                       + "_threads",
                   best.seconds * 1e3, "ms");
    }
    return ok;
}

} // namespace

int main(int argc, char** argv)
{
    bench_reporter report("sim_throughput", argc, argv,
                          {"isa", "min-speedup", "vectors", "reps"});
    const std::string isa_flag =
        bench_flag_string(argc, argv, "isa", "");
    if (!isa_flag.empty() && !vec::force_isa(isa_flag)) {
        std::cerr << "bench_sim_throughput: --isa " << isa_flag
                  << " is not available on this host/build\n";
        return 1;
    }
    report.set_isa(vec::isa_name(vec::active_isa()));
    const double min_speedup =
        bench_flag_double(argc, argv, "min-speedup", 0.0);
    const auto vectors = static_cast<std::uint64_t>(
        bench_flag_double(argc, argv, "vectors", 1 << 15));
    const int reps = std::max(
        1, static_cast<int>(bench_flag_double(argc, argv, "reps", 3)));

    const dvafs_multiplier& mult = *netlist_cache::global().dvafs(16);
    const tech_model& tech = tech_40nm_lp();

    print_banner(std::cout,
                 "gate simulation on the Fig. 2 multiplier sweep ("
                     + std::to_string(mult.gate_count()) + " gates, "
                     + std::to_string(vectors) + " vectors/point)");
    const bool pinned =
        !isa_flag.empty() || std::getenv("DVAFS_FORCE_ISA") != nullptr;
    std::cout << "  host-SIMD backend: "
              << vec::isa_name(vec::active_isa())
              << (pinned ? " (forced)" : " (auto-detected)") << "\n";
    if (!vec_backends_identical(mult, tech)) {
        return 1;
    }

    ascii_table t({"point", "sched gates", "scalar", "compiled", "x"});
    double scalar_s = 0.0;
    double compiled_s = 0.0;
    bool mismatch = false;
    const std::vector<operating_point_spec> sweep = kparam_sweep_points(16);
    for (const operating_point_spec& spec : sweep) {
        point_stream sc;
        sc.spec = spec;
        sc.vectors = vectors;

        const activity ref =
            best_of(reps, [&] { return run_scalar(mult, tech, sc); });
        const activity comp =
            best_of(reps, [&] { return run_compiled(mult, tech, sc); });
        if (comp.toggles != ref.toggles || comp.cap_ff != ref.cap_ff) {
            std::cerr << "FAIL: compiled engine disagrees with the scalar "
                         "oracle at "
                      << spec.label() << "\n";
            mismatch = true;
        }
        scalar_s += ref.seconds;
        compiled_s += comp.seconds;

        const auto sched = compiled_netlist_cache::global().get(
            mult.net(), mult.tied_inputs(spec.mode, das_keep_of(mult, spec)));
        const double vs = static_cast<double>(vectors);
        t.add_row({spec.label(), std::to_string(sched->scheduled_gates()),
                   rate_str(vs / ref.seconds), rate_str(vs / comp.seconds),
                   fmt_fixed(ref.seconds / comp.seconds, 1) + "x"});
        const std::string prefix = spec.label();
        report.add(prefix + ".scalar_vps", vs / ref.seconds, "1/s");
        report.add(prefix + ".compiled_vps", vs / comp.seconds, "1/s");
        report.add(prefix + ".scheduled_gates",
                   static_cast<double>(sched->scheduled_gates()), "gates");
    }
    t.print(std::cout);

    const double total_vectors =
        static_cast<double>(vectors) * static_cast<double>(sweep.size());
    const double speedup = scalar_s / compiled_s;
    std::cout << "\n  sweep aggregate: scalar "
              << rate_str(total_vectors / scalar_s) << "/s, compiled "
              << rate_str(total_vectors / compiled_s) << "/s ("
              << fmt_fixed(speedup, 1) << "x)\n\n";
    report.add("sweep.scalar_vps", total_vectors / scalar_s, "1/s");
    report.add("sweep.compiled_vps", total_vectors / compiled_s, "1/s");
    report.add("sweep.compiled_speedup", speedup, "x");

    if (!time_threaded_sweep(mult, tech, reps, report)) {
        mismatch = true;
    }
    if (mismatch) {
        return 1;
    }
    if (!report.write()) {
        return 4;
    }
    if (min_speedup > 0.0 && speedup < min_speedup) {
        std::cerr << "FAIL: compiled sweep speedup over the scalar oracle ("
                  << fmt_fixed(speedup, 1) << "x) below the "
                  << fmt_fixed(min_speedup, 1) << "x floor\n";
        return 3;
    }
    return 0;
}
