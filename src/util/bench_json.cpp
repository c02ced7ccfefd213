#include "util/bench_json.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace dvafs {

namespace {

std::string find_flag_value(int argc, char** argv, const std::string& flag)
{
    for (int i = 1; i < argc; ++i) {
        if (argv[i] == flag) {
            if (i + 1 >= argc) {
                throw std::invalid_argument(flag + ": missing value");
            }
            return argv[i + 1];
        }
    }
    return {};
}

std::string json_escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out += c; break;
        }
    }
    return out;
}

std::string json_number(double v)
{
    if (!std::isfinite(v)) {
        return "null"; // JSON has no inf/nan
    }
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v;
    return os.str();
}

} // namespace

bench_reporter::bench_reporter(std::string bench, int argc, char** argv,
                               const std::vector<std::string>& flags)
    : bench_(std::move(bench))
{
    std::vector<std::string> accepted = {"json", "bench-suffix"};
    accepted.insert(accepted.end(), flags.begin(), flags.end());
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            std::cout << "usage: " << argv[0];
            for (const std::string& f : accepted) {
                std::cout << " [--" << f << " <value>]";
            }
            std::cout << "\n";
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0
            || std::ranges::find(accepted, arg.substr(2)) == accepted.end()) {
            throw std::invalid_argument(bench_ + ": unknown argument " + arg
                                        + " (see --help)");
        }
        ++i; // every flag takes a value
    }
    path_ = find_flag_value(argc, argv, "--json");
    const std::string suffix =
        find_flag_value(argc, argv, "--bench-suffix");
    if (!suffix.empty()) {
        bench_ += "." + suffix;
    }
}

void bench_reporter::add(const std::string& metric, double value,
                         const std::string& unit)
{
    records_.push_back({metric, value, unit});
}

bool bench_reporter::write() const
{
    if (path_.empty()) {
        return true;
    }
    std::ofstream out(path_);
    if (!out) {
        std::cerr << bench_ << ": cannot write " << path_ << "\n";
        return false;
    }
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const bench_record& r = records_[i];
        out << "  {\"bench\": \"" << json_escape(bench_)
            << "\", \"metric\": \"" << json_escape(r.metric)
            << "\", \"value\": " << json_number(r.value)
            << ", \"unit\": \"" << json_escape(r.unit)
            << "\", \"isa\": \"" << json_escape(isa_) << "\"}"
            << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
}

double bench_flag_double(int argc, char** argv, const std::string& name,
                         double fallback)
{
    const std::string raw = find_flag_value(argc, argv, "--" + name);
    if (raw.empty()) {
        return fallback;
    }
    char* end = nullptr;
    const double v = std::strtod(raw.c_str(), &end);
    if (end == raw.c_str() || *end != '\0') {
        throw std::invalid_argument("--" + name + ": bad number " + raw);
    }
    return v;
}

std::string bench_flag_string(int argc, char** argv,
                              const std::string& name,
                              const std::string& fallback)
{
    const std::string raw = find_flag_value(argc, argv, "--" + name);
    return raw.empty() ? fallback : raw;
}

} // namespace dvafs
