#ifndef VALMOD_CORE_PARTIAL_PROFILE_H_
#define VALMOD_CORE_PARTIAL_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/lower_bound.h"

namespace valmod::core {

/// One stored candidate of a partial distance profile (paper Figure 2): the
/// match offset, its running dot product (kept current so the true distance
/// at each next length costs one fused multiply-add), and its base LB, the
/// length-independent factor of the lower bound.
struct Entry {
  int64_t match = -1;
  double dot = 0.0;
  double base_lb = 0.0;
  double distance = std::numeric_limits<double>::infinity();
};

/// The p best-LB candidates of every subsequence ("partial distance
/// profiles", the data structure at the heart of VALMOD).
///
/// Storage is one flat array with stride p for cache-friendly per-length
/// sweeps. Each row records:
///  * its entries (the p candidates with smallest base LB seen at seed time,
///    maintained as a max-heap during seeding, compacted as candidates die);
///  * `max_base_lb`: the p-th smallest base LB at seed time — a lower bound
///    factor for every *non-stored* candidate. Frozen at seeding: +infinity
///    while the row holds fewer than p candidates (then the stored set is
///    exhaustive and nothing is unexplored).
/// The length a row was seeded at, whose statistics anchor its LB, is the
/// caller's to track: rows re-seeded after an exact recompute move their
/// base forward.
class PartialProfileSet {
 public:
  /// `rows` subsequences, `p >= 1` entries per row.
  PartialProfileSet(std::size_t rows, std::size_t p);

  std::size_t rows() const { return row_size_.size(); }
  std::size_t capacity_per_row() const { return p_; }

  /// Offers a candidate during (re-)seeding; keeps the p smallest base LBs
  /// and returns whether the candidate was stored. The common case — a full
  /// row and a candidate no better than its worst stored entry — is decided
  /// here in one compare; only the heap update is out of line.
  bool Offer(std::size_t row, int64_t match, double dot, double base_lb) {
    if (row_size_[row] == p_ && base_lb >= entries_[row * p_].base_lb) {
      return false;
    }
    Store(row, match, dot, base_lb);
    return true;
  }

  /// True when the row holds p entries, so an offer must beat Worst(row).
  bool Full(std::size_t row) const { return row_size_[row] == p_; }

  /// The stored candidate with the largest base LB (the heap root while
  /// seeding): the one the next accepted offer evicts. Requires a non-empty
  /// row that is still being seeded.
  const Entry& Worst(std::size_t row) const { return entries_[row * p_]; }

  /// Freezes `max_base_lb` after seeding finished for `row` (call once per
  /// row per seeding pass) and orders its entries by ascending base LB.
  void FinishSeeding(std::size_t row);

  /// Clears a row before re-seeding.
  void Reset(std::size_t row);

  /// Live entries of a row (mutable: the per-length sweep updates dot /
  /// distance in place).
  std::span<Entry> MutableRow(std::size_t row) {
    return {&entries_[row * p_], row_size_[row]};
  }
  std::span<const Entry> Row(std::size_t row) const {
    return {&entries_[row * p_], row_size_[row]};
  }

  /// Drops entries for which `dead(entry)` is true, preserving order.
  /// Dead candidates (overlapping the grown exclusion zone or past the
  /// shrunken subsequence count) never come back, so this is permanent.
  template <typename Predicate>
  void CompactRow(std::size_t row, Predicate dead) {
    Entry* base = &entries_[row * p_];
    std::size_t kept = 0;
    for (std::size_t e = 0; e < row_size_[row]; ++e) {
      if (!dead(base[e])) {
        if (kept != e) base[kept] = base[e];
        ++kept;
      }
    }
    row_size_[row] = kept;
  }

  /// The frozen bound factor for unexplored candidates of the row.
  double max_base_lb(std::size_t row) const { return max_base_lb_[row]; }

 private:
  /// Inserts a candidate Offer accepted: a heap push, or a root replacement
  /// when the row is full.
  void Store(std::size_t row, int64_t match, double dot, double base_lb);

  std::size_t p_;
  std::vector<Entry> entries_;          // rows * p, heap/sorted per row
  std::vector<std::size_t> row_size_;   // live entries per row
  std::vector<double> max_base_lb_;     // frozen at FinishSeeding
};

/// -- Exact seeding pre-filters ---------------------------------------------
///
/// Once a row is full, almost every offer loses to its worst entry. A key
/// lets a seeding loop prove that before it evaluates the candidate's base
/// LB (a sqrt): the base LB is a monotone function of a value the loop
/// already holds, so comparing that value with the worst entry's decides
/// the offer. A key is only used when it reproduces the worst entry's
/// stored base LB exactly. Otherwise — a constant partner, stored with
/// base sqrt(l) whatever its distance — the row's filter stays off until
/// its worst entry changes, so every filtered offer is one Offer rejects.

/// Key for offers with base_lb = BaseLowerBound(rho, length), which never
/// increases as rho grows: Offer rejects every rho <= the key. `rho_of`
/// maps the worst entry to the correlation it was offered with. -infinity
/// (filters nothing) while the row is not full.
template <typename RhoOf>
double RhoOfferKey(const PartialProfileSet& set, std::size_t row,
                   std::size_t length, RhoOf rho_of) {
  constexpr double kOff = -std::numeric_limits<double>::infinity();
  if (!set.Full(row)) return kOff;
  const Entry& worst = set.Worst(row);
  const double rho = rho_of(worst);
  return BaseLowerBound(rho, length) == worst.base_lb ? rho : kOff;
}

/// Key for offers with base_lb = BaseLowerBoundFromDistance(d, length),
/// which never decreases as d grows: Offer rejects every d >= the key.
/// `distance_of` maps the worst entry to its distance. +infinity (filters
/// nothing) while the row is not full.
template <typename DistanceOf>
double DistanceOfferKey(const PartialProfileSet& set, std::size_t row,
                        std::size_t length, DistanceOf distance_of) {
  constexpr double kOff = std::numeric_limits<double>::infinity();
  if (!set.Full(row)) return kOff;
  const Entry& worst = set.Worst(row);
  const double d = distance_of(worst);
  return BaseLowerBoundFromDistance(d, length) == worst.base_lb ? d : kOff;
}

}  // namespace valmod::core

#endif  // VALMOD_CORE_PARTIAL_PROFILE_H_
