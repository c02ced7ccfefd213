// Arithmetic building-block builders on top of the netlist: half/full
// adders, ripple and Kogge-Stone carry-propagate adders, column compressors
// for Wallace-style reduction, and vector gating/mux helpers.
//
// All builders append gates to the caller's netlist and return the nets that
// carry the results (LSB first for buses).

#pragma once

#include "circuit/netlist.h"

#include <vector>

namespace dvafs {

// A bus is a vector of nets, LSB first.
using bus = std::vector<net_id>;

struct adder_bit {
    net_id sum = no_net;
    net_id carry = no_net;
};

// sum = a ^ b, carry = a & b
adder_bit build_half_adder(netlist& nl, net_id a, net_id b);

// sum = a ^ b ^ cin, carry = maj(a, b, cin)
adder_bit build_full_adder(netlist& nl, net_id a, net_id b, net_id cin);

// Ripple-carry adder; result has max(|a|,|b|)+1 bits unless `drop_carry`.
bus build_ripple_adder(netlist& nl, const bus& a, const bus& b,
                       net_id cin = no_net, bool drop_carry = false);

// Kogge-Stone parallel-prefix adder (logarithmic depth). Buses must be the
// same width; result is width+1 bits unless `drop_carry`.
bus build_kogge_stone_adder(netlist& nl, const bus& a, const bus& b,
                            bool drop_carry = false);

// --- Wallace-style column compression --------------------------------------
//
// `columns[c]` holds the nets with arithmetic weight 2^c. Compression applies
// full adders (3:2) and half adders (2:2) column by column until every column
// has at most two entries; the two remaining rows are returned for a final
// carry-propagate addition.
//
// `carry_kill[c]`, when present and valid, gates every carry propagating from
// column c-1 into column c (subword boundary cut).
struct compressed_rows {
    bus row0;
    bus row1;
    std::size_t full_adders = 0;
    std::size_t half_adders = 0;
};

compressed_rows
build_wallace_compressor(netlist& nl, std::vector<std::vector<net_id>> columns,
                         const std::vector<net_id>& carry_kill = {});

// Carry-select adder built from Kogge-Stone blocks: each block is computed
// for carry-in 0 and 1, then muxed by the incoming block carry. `kills`
// gates the inter-block carry entering the given bit position (which must be
// a block boundary) -- the fast CPA used at subword boundaries, where a
// ripple chain would misrepresent the critical path.
bus build_carry_select_adder(netlist& nl, const bus& a, const bus& b,
                             int block_bits,
                             const std::vector<std::pair<int, net_id>>& kills
                             = {},
                             bool drop_carry = true);

// Convenience: full Wallace reduction + CPA with optional carry kills at
// given bit positions (net per position). With no kills the CPA is a plain
// Kogge-Stone; with kills it is a carry-select adder segmented at 8-bit
// blocks so subword cuts land on block boundaries.
bus build_wallace_sum(netlist& nl, std::vector<std::vector<net_id>> columns,
                      int result_width,
                      const std::vector<std::pair<int, net_id>>& kills = {});

} // namespace dvafs
