#include "util/table.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace dvafs {

namespace {

bool looks_numeric(const std::string& s)
{
    if (s.empty()) {
        return false;
    }
    std::size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
    bool digit_seen = false;
    for (; i < s.size(); ++i) {
        const char c = s[i];
        if (std::isdigit(static_cast<unsigned char>(c))) {
            digit_seen = true;
        } else if (c != '.' && c != 'e' && c != 'E' && c != '-' && c != '+'
                   && c != '%' && c != 'x') {
            return false;
        }
    }
    return digit_seen;
}

} // namespace

std::string fmt_double(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    return buf;
}

std::string fmt_fixed(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    return buf;
}

std::string fmt_percent(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
    return buf;
}

std::string fmt_sci(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*e", precision, v);
    return buf;
}

ascii_table::ascii_table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void ascii_table::add_row(std::vector<std::string> cells)
{
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
}

void ascii_table::print(std::ostream& os) const
{
    std::vector<std::size_t> width(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        width[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            width[c] = std::max(width[c], row[c].size());
        }
    }

    const auto emit = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            const std::size_t pad = width[c] - row[c].size();
            os << "  ";
            if (looks_numeric(row[c])) {
                os << std::string(pad, ' ') << row[c];
            } else {
                os << row[c] << std::string(pad, ' ');
            }
        }
        os << '\n';
    };

    emit(headers_);
    std::size_t total = 0;
    for (const std::size_t w : width) {
        total += w + 2;
    }
    os << std::string(total, '-') << '\n';
    for (const auto& row : rows_) {
        emit(row);
    }
}

std::string ascii_table::to_string() const
{
    std::ostringstream ss;
    print(ss);
    return ss.str();
}

void print_banner(std::ostream& os, const std::string& title)
{
    os << '\n'
       << "==== " << title << " " << std::string(std::max<std::size_t>(
              4, 74 - std::min<std::size_t>(70, title.size())), '=')
       << '\n';
}

} // namespace dvafs
