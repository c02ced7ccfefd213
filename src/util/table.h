// Column-aligned ASCII table printer. Every bench binary uses this to emit
// the rows/series of the paper's tables and figures in a uniform format.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dvafs {

// Formatting helpers shared by benches and examples.
std::string fmt_double(double v, int precision = 3);
std::string fmt_fixed(double v, int precision = 2);
std::string fmt_percent(double fraction, int precision = 0);
std::string fmt_sci(double v, int precision = 2);

class ascii_table {
public:
    explicit ascii_table(std::vector<std::string> headers);

    // Appends a row; the row is padded/truncated to the header width.
    void add_row(std::vector<std::string> cells);

    std::size_t rows() const noexcept { return rows_.size(); }
    std::size_t columns() const noexcept { return headers_.size(); }

    // Renders with a header separator and right-aligned numeric-looking cells.
    void print(std::ostream& os) const;
    std::string to_string() const;

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

// Prints a titled section banner (used by benches to label each figure).
void print_banner(std::ostream& os, const std::string& title);

} // namespace dvafs
