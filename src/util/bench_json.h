// Machine-readable bench output.
//
// Every bench_* target accepts `--json <path>`; when present, the bench
// writes a JSON array of flat records
//     {"bench": "...", "metric": "...", "value": <number>, "unit": "...",
//      "isa": "..."}
// alongside its human-readable tables, so CI can archive a benchmark
// trajectory and gate on regressions. The full schema -- field
// conventions, units, gate exit codes, which benches CI uploads, and the
// checked-in BENCH_sim.json baseline built by scripts/collect_bench.py --
// lives in docs/bench_schema.md.

#pragma once

#include <string>
#include <vector>

namespace dvafs {

struct bench_record {
    std::string metric;
    double value = 0.0;
    std::string unit;
};

class bench_reporter {
public:
    // `bench` names the target (the "bench" field of every record);
    // argv is scanned for `--json <path>` and `--bench-suffix <s>` -- the
    // suffix is appended as "<bench>.<s>", so one bench run twice under
    // different conditions (CI's cold/warm cache lane) emits records
    // collect_bench.py accepts as distinct instead of rejecting as
    // duplicates. Throws std::invalid_argument when either flag is
    // present without a value.
    //
    // `flags` names the bench's own value flags (without the leading
    // "--"; read with bench_flag_double / bench_flag_string). Any other
    // argument throws std::invalid_argument naming it, so a misspelt gate
    // flag fails the run instead of silently turning its gate off.
    // `--help` prints the accepted flags and exits 0 without running.
    bench_reporter(std::string bench, int argc, char** argv,
                   const std::vector<std::string>& flags = {});

    // Records a metric (kept even without --json; benches may assert on
    // their own records).
    void add(const std::string& metric, double value,
             const std::string& unit);

    // Tags every record with the host-SIMD backend the numbers were
    // measured under (vec::isa_name of the active table). Defaults to
    // "default": records from benches that predate the vec layer -- and
    // checked-in baselines missing the field -- stay valid, and
    // collect_bench.py treats a missing "isa" as "default" when merging.
    void set_isa(std::string isa) { isa_ = std::move(isa); }
    const std::string& isa() const noexcept { return isa_; }

    bool enabled() const noexcept { return !path_.empty(); }
    const std::vector<bench_record>& records() const noexcept
    {
        return records_;
    }

    // Writes the records when --json was given (no-op otherwise). Returns
    // false and prints to stderr when the file cannot be written.
    bool write() const;

private:
    std::string bench_;
    std::string path_;
    std::string isa_ = "default";
    std::vector<bench_record> records_;
};

// Scans argv for `--<name> <value>`; returns fallback when absent. Shared
// by bench flags like --min-speedup. Throws std::invalid_argument on a
// missing or non-numeric value.
double bench_flag_double(int argc, char** argv, const std::string& name,
                         double fallback);

// String-valued variant of bench_flag_double (e.g. --isa avx2). Throws
// std::invalid_argument when the flag is present without a value.
std::string bench_flag_string(int argc, char** argv,
                              const std::string& name,
                              const std::string& fallback);

} // namespace dvafs
