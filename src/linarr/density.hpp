// Density bookkeeping for a netlist under a linear arrangement.
//
// A net whose pins occupy positions [lo, hi] crosses exactly the boundaries
// lo, lo+1, ..., hi-1 (boundary b separates positions b and b+1).  The
// *density* of an arrangement is the maximum crossing count over all n-1
// boundaries — the quantity GOLA/NOLA minimize (§4.1).  The *total span*
// (sum of crossing counts == sum of net extents) is also maintained; it is
// the wirelength-style objective used by an ablation bench.
//
// DensityState keeps, incrementally:
//   * per-net position extrema (lo, hi),
//   * per-boundary crossing counts,
//   * a histogram of crossing counts with a lazily-decremented maximum, so
//     density() is O(1) amortized after O(pins-touched) move updates.
//
// Moves are applied through DensityState so the arrangement and the counts
// never diverge; `verify()` recomputes everything from scratch for tests.
//
// Two ways to make a move:
//   * apply_swap/apply_move mutate the committed state in place (the
//     state-level reference: self-inverse, obviously correct, used by the
//     density and stress tests);
//   * speculate_swap/speculate_move evaluate the same move into a
//     touched-net journal without committing anything.  The candidate
//     density/total span are exact integers, so a Metropolis loop can test
//     them, then commit_speculation() in O(touched) or
//     discard_speculation() in O(touched-scratch-clears) — a rejected
//     proposal never writes cuts_, the histogram, or the arrangement.
//     Positions outside the window [min(a,b), max(a,b)] do not move under
//     a swap or a single exchange, so every net extremum that changes lies
//     in that window before and after the move.  Speculation skips nets
//     whose extrema provably cannot change, records each other net as four
//     +-1 writes into a difference array (old span out, new span in; an
//     endpoint that stays put cancels), and one prefix sweep over the
//     window yields the changed boundaries, their deltas and the window
//     maximum: O(touched nets + window) per move.
//     Commit pays one histogram update per changed boundary instead of one
//     per crossing unit, so accepted moves are cheaper than the apply path
//     too.
#pragma once

#include <cstddef>
#include <vector>

#include "linarr/arrangement.hpp"
#include "netlist/netlist.hpp"

namespace mcopt::linarr {

using netlist::NetId;
using netlist::Netlist;

class DensityState {
 public:
  /// Binds to `netlist` (which must outlive this object) and computes all
  /// counts for `arrangement`.
  DensityState(const Netlist& netlist, Arrangement arrangement);

  /// Copies re-reserve every per-move scratch buffer: vector copies shrink
  /// capacity to size, and the scratch vectors are empty between moves, so
  /// a defaulted copy (Problem::clone()'s path into the parallel engine)
  /// would silently re-allocate on the worker's first hot-loop move.
  DensityState(const DensityState& other);
  DensityState& operator=(const DensityState& other);
  DensityState(DensityState&&) noexcept = default;
  DensityState& operator=(DensityState&&) noexcept = default;
  ~DensityState() = default;

  [[nodiscard]] const Arrangement& arrangement() const noexcept {
    return arrangement_;
  }
  [[nodiscard]] const Netlist& netlist() const noexcept { return *netlist_; }

  /// Max crossing count over all boundaries; 0 when n == 1.
  [[nodiscard]] int density() const noexcept;

  /// Sum of crossing counts over all boundaries (== sum of net spans).
  [[nodiscard]] long long total_span() const noexcept { return total_span_; }

  /// Crossing count at boundary b (between positions b and b+1).
  [[nodiscard]] int cut_at(std::size_t boundary) const noexcept {
    return cuts_[boundary];
  }

  /// Applies a pairwise interchange of positions p and q.  O(pins of nets
  /// incident to the two cells).  Self-inverse: applying twice restores.
  void apply_swap(std::size_t p, std::size_t q);

  /// Applies a single-exchange (remove at `from`, insert at `to`).
  /// O(pins of nets incident to the cells in [min(from,to), max(from,to)]).
  void apply_move(std::size_t from, std::size_t to);

  /// Speculatively evaluates a pairwise interchange of positions p and q
  /// (p != q): records the touched-net journal and the exact candidate
  /// density / total span, but commits nothing.  Exactly one of
  /// commit_speculation()/discard_speculation() must follow before the
  /// next move (speculative or applied).
  void speculate_swap(std::size_t p, std::size_t q);

  /// Speculatively evaluates a single-exchange (remove at `from`, insert
  /// at `to`, from != to), same contract as speculate_swap().
  void speculate_move(std::size_t from, std::size_t to);

  /// Exact density of the candidate arrangement recorded by the pending
  /// speculation.
  [[nodiscard]] int speculative_density() const noexcept {
    return spec_density_;
  }

  /// Exact total span of the candidate arrangement recorded by the
  /// pending speculation.
  [[nodiscard]] long long speculative_total_span() const noexcept {
    return spec_total_span_;
  }

  /// True while a speculation is pending.
  [[nodiscard]] bool speculating() const noexcept {
    return spec_kind_ != SpecKind::kNone;
  }

  /// Commits the pending speculation in O(touched nets + changed
  /// boundaries): one histogram update per boundary the window sweep
  /// emitted, extrema from the journal, then the arrangement move itself.
  void commit_speculation();

  /// Drops the pending speculation; only scratch marks are cleared.
  void discard_speculation();

  /// Replaces the arrangement wholesale (full recount).
  void reset(Arrangement arrangement);

  /// Recomputes from scratch and compares with the incremental state.
  /// Returns true when they agree, no speculation is pending and the
  /// speculation difference array is all zero; tests assert this after
  /// random moves.
  [[nodiscard]] bool verify() const;

  /// True when every per-move scratch buffer holds its full reservation;
  /// the clone regression test asserts this so cloned workers stay
  /// allocation-free on the hot path.
  [[nodiscard]] bool scratch_reserved() const noexcept;

 private:
  enum class SpecKind : unsigned char { kNone, kSwap, kMove };

  void rebuild();
  void reserve_scratch();
  void retire_net(NetId n);    // remove net's span from cuts_/histogram
  void activate_net(NetId n);  // recompute extrema, add span back
  void add_span(std::size_t lo, std::size_t hi, int delta);
  void bump_boundary(std::size_t b, int delta);
  void spec_record_net(NetId n, std::size_t new_lo, std::size_t new_hi);
  void spec_finish();
  void spec_clear_scratch();

  const Netlist* netlist_;
  Arrangement arrangement_;
  std::vector<std::size_t> net_lo_;
  std::vector<std::size_t> net_hi_;
  std::vector<int> cuts_;            // size n-1
  std::vector<int> cut_histogram_;   // value -> #boundaries, size num_nets+1
  mutable int max_cut_ = 0;          // lazily tightened upper bound
  long long total_span_ = 0;
  std::vector<NetId> touched_;       // scratch, de-duplicated per move
  std::vector<char> touched_mark_;

  // Speculation journal (SoA) and scratch.  All buffers are reserved once
  // (constructor / copy) and only cleared between moves, so the
  // speculate/commit/discard cycle is allocation-free.
  SpecKind spec_kind_ = SpecKind::kNone;
  std::size_t spec_a_ = 0;  // swap: positions; move: from -> to
  std::size_t spec_b_ = 0;
  int spec_density_ = 0;
  long long spec_total_span_ = 0;
  std::vector<NetId> spec_nets_;           // journal: net whose extrema move
  std::vector<std::size_t> spec_new_lo_;   //   parallel: candidate lo
  std::vector<std::size_t> spec_new_hi_;   //   parallel: candidate hi
  std::vector<std::size_t> spec_boundaries_;  // changed, ascending
  std::vector<int> spec_deltas_;           //   parallel: cut delta
  std::vector<int> boundary_diff_;  // size n, all zero between moves
  std::vector<int> removed_at_;     // old cut value -> #changed boundaries
};

/// One-shot density of an arrangement (builds a temporary state).
[[nodiscard]] int density_of(const Netlist& netlist,
                             const Arrangement& arrangement);

}  // namespace mcopt::linarr
