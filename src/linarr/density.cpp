#include "linarr/density.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "util/invariant.hpp"

namespace mcopt::linarr {

DensityState::DensityState(const Netlist& netlist, Arrangement arrangement)
    : netlist_(&netlist), arrangement_(std::move(arrangement)) {
  if (arrangement_.size() != netlist.num_cells()) {
    throw std::invalid_argument(
        "DensityState: arrangement size != netlist cell count");
  }
  net_lo_.resize(netlist.num_nets());
  net_hi_.resize(netlist.num_nets());
  rebuild();
  reserve_scratch();
}

DensityState::DensityState(const DensityState& other)
    : netlist_(other.netlist_),
      arrangement_(other.arrangement_),
      net_lo_(other.net_lo_),
      net_hi_(other.net_hi_),
      cuts_(other.cuts_),
      cut_histogram_(other.cut_histogram_),
      max_cut_(other.max_cut_),
      total_span_(other.total_span_) {
  MCOPT_DCHECK(!other.speculating(), "copying a speculating DensityState");
  reserve_scratch();
}

DensityState& DensityState::operator=(const DensityState& other) {
  if (this == &other) return *this;
  MCOPT_DCHECK(!other.speculating(), "copying a speculating DensityState");
  // Cleared against our own cuts_, before they are overwritten.
  spec_clear_scratch();
  spec_kind_ = SpecKind::kNone;
  touched_.clear();
  netlist_ = other.netlist_;
  arrangement_ = other.arrangement_;
  net_lo_ = other.net_lo_;
  net_hi_ = other.net_hi_;
  cuts_ = other.cuts_;
  cut_histogram_ = other.cut_histogram_;
  max_cut_ = other.max_cut_;
  total_span_ = other.total_span_;
  reserve_scratch();
  return *this;
}

void DensityState::reserve_scratch() {
  // A move touches at most every net and every boundary, so one
  // reservation up front keeps every per-move scratch buffer
  // allocation-free for the life of the state (including clones — vector
  // copies shrink capacity to size, which is zero for empty scratch).
  const std::size_t nets = netlist_->num_nets();
  const std::size_t boundaries = cuts_.size();
  touched_.reserve(nets);
  touched_mark_.assign(nets, 0);
  spec_nets_.reserve(nets);
  spec_new_lo_.reserve(nets);
  spec_new_hi_.reserve(nets);
  spec_boundaries_.reserve(boundaries);
  spec_deltas_.reserve(boundaries);
  boundary_diff_.assign(arrangement_.size(), 0);
  removed_at_.assign(cut_histogram_.size(), 0);
}

bool DensityState::scratch_reserved() const noexcept {
  const std::size_t nets = netlist_->num_nets();
  const std::size_t boundaries = cuts_.size();
  return touched_.capacity() >= nets && touched_mark_.size() == nets &&
         spec_nets_.capacity() >= nets && spec_new_lo_.capacity() >= nets &&
         spec_new_hi_.capacity() >= nets &&
         spec_boundaries_.capacity() >= boundaries &&
         spec_deltas_.capacity() >= boundaries &&
         boundary_diff_.size() == arrangement_.size() &&
         removed_at_.size() == cut_histogram_.size();
}

void DensityState::rebuild() {
  const std::size_t n = arrangement_.size();
  cuts_.assign(n > 0 ? n - 1 : 0, 0);
  cut_histogram_.assign(netlist_->num_nets() + 2, 0);
  if (!cuts_.empty()) {
    cut_histogram_[0] = static_cast<int>(cuts_.size());
  }
  max_cut_ = 0;
  total_span_ = 0;
  for (NetId net = 0; net < netlist_->num_nets(); ++net) {
    activate_net(net);
  }
}

int DensityState::density() const noexcept {
  while (max_cut_ > 0 &&
         cut_histogram_[static_cast<std::size_t>(max_cut_)] == 0) {
    --max_cut_;
  }
  return max_cut_;
}

// mcopt: hot
void DensityState::bump_boundary(std::size_t b, int delta) {
  const int old_cut = cuts_[b];
  const int new_cut = old_cut + delta;
  cuts_[b] = new_cut;
  --cut_histogram_[static_cast<std::size_t>(old_cut)];
  ++cut_histogram_[static_cast<std::size_t>(new_cut)];
  if (new_cut > max_cut_) max_cut_ = new_cut;
  total_span_ += delta;
}

// mcopt: hot
void DensityState::add_span(std::size_t lo, std::size_t hi, int delta) {
  for (std::size_t b = lo; b < hi; ++b) bump_boundary(b, delta);
}

// mcopt: hot
void DensityState::retire_net(NetId n) {
  add_span(net_lo_[n], net_hi_[n], -1);
}

// mcopt: hot
void DensityState::activate_net(NetId n) {
  std::size_t lo = arrangement_.size();
  std::size_t hi = 0;
  for (const auto cell : netlist_->pins(n)) {
    const std::size_t pos = arrangement_.position_of(cell);
    lo = std::min(lo, pos);
    hi = std::max(hi, pos);
  }
  net_lo_[n] = lo;
  net_hi_[n] = hi;
  add_span(lo, hi, +1);
}

// mcopt: hot
void DensityState::apply_swap(std::size_t p, std::size_t q) {
  MCOPT_DCHECK(p < arrangement_.size() && q < arrangement_.size(),
               "swap position out of range");
  if (p == q) return;
  touched_.clear();
  for (const std::size_t pos : {p, q}) {
    for (const NetId net : netlist_->nets_of(arrangement_.cell_at(pos))) {
      if (!touched_mark_[net]) {
        touched_mark_[net] = 1;
        touched_.push_back(net);  // mcopt-lint: allow(hot-loop-alloc)
      }
    }
  }
  for (const NetId net : touched_) retire_net(net);
  arrangement_.swap_positions(p, q);
  for (const NetId net : touched_) {
    activate_net(net);
    touched_mark_[net] = 0;
  }
}

// mcopt: hot
void DensityState::apply_move(std::size_t from, std::size_t to) {
  MCOPT_DCHECK(from < arrangement_.size() && to < arrangement_.size(),
               "move position out of range");
  if (from == to) return;
  touched_.clear();
  const auto lo = std::min(from, to);
  const auto hi = std::max(from, to);
  for (std::size_t pos = lo; pos <= hi; ++pos) {
    for (const NetId net : netlist_->nets_of(arrangement_.cell_at(pos))) {
      if (!touched_mark_[net]) {
        touched_mark_[net] = 1;
        touched_.push_back(net);  // mcopt-lint: allow(hot-loop-alloc)
      }
    }
  }
  for (const NetId net : touched_) retire_net(net);
  arrangement_.move_position(from, to);
  for (const NetId net : touched_) {
    activate_net(net);
    touched_mark_[net] = 0;
  }
}

// mcopt: hot
void DensityState::spec_record_net(NetId n, std::size_t new_lo,
                                   std::size_t new_hi) {
  const std::size_t old_lo = net_lo_[n];
  const std::size_t old_hi = net_hi_[n];
  if (new_lo == old_lo && new_hi == old_hi) return;
  const std::size_t w_lo = std::min(spec_a_, spec_b_);
  const std::size_t w_hi = std::max(spec_a_, spec_b_);
  auto moved_in_window = [w_lo, w_hi](std::size_t from, std::size_t to) {
    return from == to ||
           (w_lo <= from && from <= w_hi && w_lo <= to && to <= w_hi);
  };
  MCOPT_DCHECK(moved_in_window(old_lo, new_lo) &&
                   moved_in_window(old_hi, new_hi),
               "net extremum moved outside the move window");
  // Reserved to num_nets() up front; never reallocates.
  spec_nets_.push_back(n);           // mcopt-lint: allow(hot-loop-alloc)
  spec_new_lo_.push_back(new_lo);    // mcopt-lint: allow(hot-loop-alloc)
  spec_new_hi_.push_back(new_hi);    // mcopt-lint: allow(hot-loop-alloc)
  // The boundary span [lo, hi) is +1 at lo and -1 at hi in the difference
  // array: retire the old span, add the new one.  An endpoint that does not
  // move cancels at its own index, so only moved endpoints — all inside the
  // window — leave anything for spec_finish() to sweep.
  --boundary_diff_[old_lo];
  ++boundary_diff_[old_hi];
  ++boundary_diff_[new_lo];
  --boundary_diff_[new_hi];
}

// mcopt: hot
void DensityState::spec_finish() {
  long long span_delta = 0;
  for (std::size_t i = 0; i < spec_nets_.size(); ++i) {
    const NetId n = spec_nets_[i];
    span_delta += static_cast<long long>(spec_new_hi_[i] - spec_new_lo_[i]) -
                  static_cast<long long>(net_hi_[n] - net_lo_[n]);
  }
  spec_total_span_ = total_span_ + span_delta;

  // Candidate density.  Boundaries outside the changed window keep their
  // cut, so the candidate is the max of (a) the new cuts inside the window
  // and (b) the largest committed cut value that still has at least one
  // boundary *outside* the window.  removed_at_[v] counts changed
  // boundaries whose committed cut is v, so cut_histogram_[v] -
  // removed_at_[v] is the count of unchanged boundaries at v; we scan down
  // from the committed density until that is nonzero.
  //
  // One prefix sweep over the window's boundaries turns the difference
  // array into per-boundary deltas and zeroes it on the way.
  const int cur = density();
  const std::size_t w_lo = std::min(spec_a_, spec_b_);
  const std::size_t w_hi = std::max(spec_a_, spec_b_);
  int window_max = 0;
  int dz = 0;
  for (std::size_t b = w_lo; b < w_hi; ++b) {
    dz += boundary_diff_[b];
    boundary_diff_[b] = 0;
    if (dz == 0) continue;
    const int old_cut = cuts_[b];
    ++removed_at_[static_cast<std::size_t>(old_cut)];
    // Reserved to cuts_.size() up front; never reallocates.
    spec_boundaries_.push_back(b);  // mcopt-lint: allow(hot-loop-alloc)
    spec_deltas_.push_back(dz);     // mcopt-lint: allow(hot-loop-alloc)
    window_max = std::max(window_max, old_cut + dz);
  }
  boundary_diff_[w_hi] = 0;  // holds -dz: every net's writes sum to zero
  if (window_max >= cur) {
    spec_density_ = window_max;
  } else {
    int v = cur;
    while (v > window_max &&
           cut_histogram_[static_cast<std::size_t>(v)] -
                   removed_at_[static_cast<std::size_t>(v)] ==
               0) {
      --v;
    }
    spec_density_ = v;  // v >= window_max on exit
  }
}

// mcopt: hot
void DensityState::speculate_swap(std::size_t p, std::size_t q) {
  MCOPT_DCHECK(p < arrangement_.size() && q < arrangement_.size(),
               "swap position out of range");
  MCOPT_DCHECK(p != q, "speculate_swap requires distinct positions");
  MCOPT_DCHECK(!speculating(), "speculation already pending");
  spec_kind_ = SpecKind::kSwap;
  spec_a_ = p;
  spec_b_ = q;
  touched_.clear();
  // Origin marks: 1 = incident to the cell at p only, 2 = at q only,
  // 3 = both.  touched_ is reserved to num_nets() up front.
  for (const NetId net : netlist_->nets_of(arrangement_.cell_at(p))) {
    if (!touched_mark_[net]) {
      touched_mark_[net] = 1;
      touched_.push_back(net);  // mcopt-lint: allow(hot-loop-alloc)
    }
  }
  for (const NetId net : netlist_->nets_of(arrangement_.cell_at(q))) {
    if (!touched_mark_[net]) {
      touched_mark_[net] = 2;
      touched_.push_back(net);  // mcopt-lint: allow(hot-loop-alloc)
    } else if (touched_mark_[net] == 1) {
      touched_mark_[net] = 3;
    }
  }
  for (const NetId net : touched_) {
    const char origin = touched_mark_[net];
    touched_mark_[net] = 0;
    // A net with pins at both p and q keeps the same position multiset
    // after the swap: extrema provably unchanged.
    if (origin == 3) continue;
    const std::size_t lo = net_lo_[net];
    const std::size_t hi = net_hi_[net];
    const std::size_t moved = origin == 1 ? p : q;  // this net's moving pin
    const std::size_t dest = origin == 1 ? q : p;   // ...and its new position
    // An interior pin (strictly between the extrema, which other pins
    // attain) landing inside [lo, hi] cannot move either extremum.
    if (lo < moved && moved < hi && lo <= dest && dest <= hi) continue;
    std::size_t new_lo = arrangement_.size();
    std::size_t new_hi = 0;
    for (const CellId cell : netlist_->pins(net)) {
      std::size_t pos = arrangement_.position_of(cell);
      if (pos == p) {
        pos = q;
      } else if (pos == q) {
        pos = p;
      }
      new_lo = std::min(new_lo, pos);
      new_hi = std::max(new_hi, pos);
    }
    spec_record_net(net, new_lo, new_hi);
  }
  spec_finish();
}

// mcopt: hot
void DensityState::speculate_move(std::size_t from, std::size_t to) {
  MCOPT_DCHECK(from < arrangement_.size() && to < arrangement_.size(),
               "move position out of range");
  MCOPT_DCHECK(from != to, "speculate_move requires distinct positions");
  MCOPT_DCHECK(!speculating(), "speculation already pending");
  spec_kind_ = SpecKind::kMove;
  spec_a_ = from;
  spec_b_ = to;
  touched_.clear();
  const std::size_t w_lo = std::min(from, to);
  const std::size_t w_hi = std::max(from, to);
  for (std::size_t pos = w_lo; pos <= w_hi; ++pos) {
    for (const NetId net : netlist_->nets_of(arrangement_.cell_at(pos))) {
      if (!touched_mark_[net]) {
        touched_mark_[net] = 1;
        touched_.push_back(net);  // mcopt-lint: allow(hot-loop-alloc)
      }
    }
  }
  for (const NetId net : touched_) {
    touched_mark_[net] = 0;
    std::size_t new_lo = arrangement_.size();
    std::size_t new_hi = 0;
    for (const CellId cell : netlist_->pins(net)) {
      const std::size_t pos = arrangement_.position_of(cell);
      std::size_t npos;
      if (pos == from) {
        npos = to;
      } else if (from < to) {
        npos = (pos > from && pos <= to) ? pos - 1 : pos;
      } else {
        npos = (pos >= to && pos < from) ? pos + 1 : pos;
      }
      new_lo = std::min(new_lo, npos);
      new_hi = std::max(new_hi, npos);
    }
    spec_record_net(net, new_lo, new_hi);
  }
  spec_finish();
}

// mcopt: hot
void DensityState::commit_speculation() {
  MCOPT_DCHECK(speculating(), "commit without a pending speculation");
  for (std::size_t i = 0; i < spec_boundaries_.size(); ++i) {
    const std::size_t b = spec_boundaries_[i];
    const int old_cut = cuts_[b];
    const int new_cut = old_cut + spec_deltas_[i];
    removed_at_[static_cast<std::size_t>(old_cut)] = 0;
    cuts_[b] = new_cut;
    // One histogram update per changed boundary — bump_boundary would pay
    // one per crossing *unit*.
    --cut_histogram_[static_cast<std::size_t>(old_cut)];
    ++cut_histogram_[static_cast<std::size_t>(new_cut)];
  }
  spec_boundaries_.clear();
  spec_deltas_.clear();
  for (std::size_t i = 0; i < spec_nets_.size(); ++i) {
    const NetId n = spec_nets_[i];
    net_lo_[n] = spec_new_lo_[i];
    net_hi_[n] = spec_new_hi_[i];
  }
  spec_nets_.clear();
  spec_new_lo_.clear();
  spec_new_hi_.clear();
  if (spec_kind_ == SpecKind::kSwap) {
    arrangement_.swap_positions(spec_a_, spec_b_);
  } else {
    arrangement_.move_position(spec_a_, spec_b_);
  }
  max_cut_ = spec_density_;  // exact, not just an upper bound
  total_span_ = spec_total_span_;
  spec_kind_ = SpecKind::kNone;
}

// mcopt: hot
void DensityState::discard_speculation() {
  MCOPT_DCHECK(speculating(), "discard without a pending speculation");
  spec_clear_scratch();
  spec_kind_ = SpecKind::kNone;
}

// mcopt: hot
void DensityState::spec_clear_scratch() {
  for (const std::size_t b : spec_boundaries_) {
    removed_at_[static_cast<std::size_t>(cuts_[b])] = 0;
  }
  spec_boundaries_.clear();
  spec_deltas_.clear();
  spec_nets_.clear();
  spec_new_lo_.clear();
  spec_new_hi_.clear();
}

void DensityState::reset(Arrangement arrangement) {
  if (arrangement.size() != netlist_->num_cells()) {
    throw std::invalid_argument(
        "DensityState::reset: arrangement size != netlist cell count");
  }
  arrangement_ = std::move(arrangement);
  rebuild();
}

bool DensityState::verify() const {
  if (speculating()) return false;
  if (!arrangement_.is_consistent()) return false;
  if (std::any_of(boundary_diff_.begin(), boundary_diff_.end(),
                  [](int d) { return d != 0; })) {
    return false;
  }
  DensityState fresh{*netlist_, arrangement_};
  if (fresh.density() != density()) return false;
  if (fresh.total_span_ != total_span_) return false;
  return fresh.cuts_ == cuts_ && fresh.net_lo_ == net_lo_ &&
         fresh.net_hi_ == net_hi_;
}

int density_of(const Netlist& netlist, const Arrangement& arrangement) {
  return DensityState{netlist, arrangement}.density();
}

}  // namespace mcopt::linarr
