// Plain-text netlist serialization.
//
// Format ("mcnl v1"):
//
//   mcnl 1
//   cells <n>
//   net <cell> <cell> [...]
//   ...
//
// Blank lines and lines starting with '#' are ignored.  The format is
// line-oriented so instances used in EXPERIMENTS.md can be archived and
// diffed.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <istream>
#include <ostream>
#include <string>

#include "netlist/netlist.hpp"

namespace mcopt::netlist {

/// Largest cell count read_netlist() accepts.  The paper's instances have
/// at most a few hundred cells; the bound turns a corrupt or hostile
/// `cells` line into a parse error instead of a multi-gigabyte allocation.
inline constexpr std::size_t kMaxNetlistCells = 1'000'000;

/// Writes `nl` in mcnl v1 form.
void write_netlist(std::ostream& out, const Netlist& nl);

/// Parses mcnl v1.  Throws std::runtime_error ("netlist parse error ...",
/// with a line number where there is one) on malformed input, including a
/// cell count above kMaxNetlistCells.
[[nodiscard]] Netlist read_netlist(std::istream& in);

/// Convenience round-trips through strings (used by tests and examples).
[[nodiscard]] std::string to_string(const Netlist& nl);
[[nodiscard]] Netlist from_string(const std::string& text);

}  // namespace mcopt::netlist
