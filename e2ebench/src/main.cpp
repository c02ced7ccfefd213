// The end-to-end benchmark binary. run.py builds it and calls
//
//   e2ebench --workload serve|admit|replan --seed N --seconds S --trace 0|1
//            --out DIR [--threads N] [--isa NAME] [--tiny] [--corrupt]
//
// It prints human-readable notes, then one JSON line with every measured
// metric, the operation counts and the run's vec backend and worker count.
// Exit codes: 0 = all output checks passed, 1 = a check failed, 2 = usage.

#include "bench.h"

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>

using namespace e2e;

namespace {

int usage(const std::string& why)
{
    std::cerr << "e2ebench: " << why
              << "\nusage: e2ebench --workload serve|admit|replan --seed N "
                 "--seconds S --trace 0|1 --out DIR [--threads N] "
                 "[--isa scalar|neon|avx2|avx512] [--tiny] [--corrupt]\n";
    return 2;
}

std::string json_escape(const std::string& s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out;
}

} // namespace

int main(int argc, char** argv)
{
    options opt;
    std::string isa;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::invalid_argument(a + " needs a value");
            }
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                opt.workload = value();
            } else if (a == "--seed") {
                opt.seed = std::stoull(value());
            } else if (a == "--seconds") {
                opt.seconds = std::stod(value());
            } else if (a == "--trace") {
                opt.trace = value() == "1";
            } else if (a == "--out") {
                opt.out_dir = value();
            } else if (a == "--threads") {
                opt.threads = static_cast<unsigned>(std::stoul(value()));
            } else if (a == "--isa") {
                isa = value();
            } else if (a == "--tiny") {
                opt.tiny = true;
            } else if (a == "--corrupt") {
                opt.corrupt = true;
            } else {
                return usage("unknown argument " + a);
            }
        } catch (const std::exception& e) {
            return usage(e.what());
        }
    }
    if (opt.out_dir.empty() || opt.threads == 0 || opt.seconds < 0.0) {
        return usage("--out is required; --threads and --seconds must be "
                     "positive");
    }
    if (!isa.empty() && !vec::force_isa(isa)) {
        return usage("vec backend '" + isa + "' is not available here");
    }
    // Admissions must be cold unless a workload points the store at its own
    // private directory.
    ::unsetenv("DVAFS_CACHE_DIR");
    std::filesystem::create_directories(opt.out_dir);

    result r;
    try {
        if (opt.workload == "serve") {
            r = run_serve(opt);
        } else if (opt.workload == "admit") {
            r = run_admit(opt);
        } else if (opt.workload == "replan") {
            r = run_replan(opt);
        } else {
            return usage("unknown workload '" + opt.workload + "'");
        }
    } catch (const std::exception& e) {
        r.ops.fail(std::string("workload threw: ") + e.what());
    }
    r.set("host.peak_rss_mb", peak_rss_mb(), "MB");
    r.set("host.isa_level", static_cast<double>(vec::active().level),
          "count");
    r.set("host.workers", opt.threads, "count");
    const std::string isa_name = vec::active().name;

    for (const std::string& note : r.notes) {
        std::cout << "# " << note << "\n";
    }
    for (const std::string& why : r.ops.reasons()) {
        std::cout << "# FAILED: " << why << "\n";
    }
    const bool correct = r.ops.failed() == 0 && r.ops.attempted() > 0;
    std::ostringstream js;
    js.precision(17);
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << r.ops.attempted()
       << ", \"failed\": " << r.ops.failed() << ", \"isa\": \""
       << json_escape(isa_name) << "\", \"workers\": " << opt.threads
       << ", \"metrics\": {";
    bool comma = false;
    for (const auto& [name, m] : r.metrics) {
        js << (comma ? ", " : "") << "\"" << json_escape(name)
           << "\": {\"value\": " << m.value << ", \"unit\": \""
           << json_escape(m.unit) << "\"}";
        comma = true;
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return correct ? 0 : 1;
}
