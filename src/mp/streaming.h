#ifndef VALMOD_MP_STREAMING_H_
#define VALMOD_MP_STREAMING_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "mp/matrix_profile.h"
#include "series/windowed_series.h"

namespace valmod::mp {

/// One motif pair derived from a maintained profile: the two window offsets
/// (window-relative; add the profile owner's window start for global stream
/// positions) and their z-normalized distance.
struct MotifEntry {
  std::size_t offset_a = 0;
  std::size_t offset_b = 0;
  double distance = 0.0;
};

/// One discord derived from a maintained profile: the window whose nearest
/// non-trivial neighbor is far away.
struct DiscordEntry {
  std::size_t offset = 0;
  std::int64_t neighbor = -1;
  double distance = 0.0;
};

/// Top-k motif pairs of a (single-length) matrix profile: every row's
/// (row, nearest neighbor) pair, deduplicated as unordered pairs, ranked by
/// ascending distance with deterministic (offset_a, offset_b) tie-breaks.
/// Used both by StreamingProfile::TopMotifs and as the batch oracle in the
/// windowed parity tests, so the two can never rank differently. k == 0
/// returns an empty list without scanning the profile.
std::vector<MotifEntry> TopKMotifs(const MatrixProfile& profile,
                                   std::size_t k);

/// Top-k discords of a matrix profile: rows ranked by descending
/// nearest-neighbor distance, greedily selected so no two picked offsets
/// fall within the profile's exclusion zone of each other (the classic
/// discord de-duplication). Rows with no eligible neighbor (+inf) are
/// skipped — they carry no evidence, not an infinitely strong anomaly.
/// k == 0 returns an empty list without scanning the profile.
std::vector<DiscordEntry> TopKDiscords(const MatrixProfile& profile,
                                       std::size_t k);

/// Configuration for StreamingProfile.
struct StreamingOptions {
  /// As in ProfileOptions: the exclusion zone is
  /// ExclusionZoneFor(length, exclusion_fraction).
  double exclusion_fraction = 0.5;

  /// Maximum points retained (the sliding window). 0 = unbounded
  /// (append-only, the historical behavior). When bounded, must be at
  /// least 2 * length so the retained window always carries enough
  /// subsequences to have non-trivial matches.
  std::size_t max_points = 0;

  /// Enables periodic re-anchoring (see class comment). On by default;
  /// tests disable it to demonstrate the drift failure mode it prevents.
  bool reanchor = true;
};

/// Incrementally maintained matrix profile for a streaming series
/// (STAMPI/STOMPI-style, the streaming variant introduced alongside the
/// Matrix Profile papers the demo builds on), with an optional sliding
/// window bounding both memory and per-append cost.
///
/// Each appended point admits one new subsequence and costs O(W + l) where
/// W is the retained window size (total history when unbounded): the new
/// window's dot products against all retained windows derive from the
/// previous newest window's dots via the same recurrence STOMP uses along
/// diagonals, and both the new row's best match and all affected existing
/// rows are updated. Rows are keyed by correlation, not distance: each
/// candidate costs a few multiplies against per-window stat arrays (mean,
/// 1 / std, constant flag) and a compare, and ProfileSnapshot converts each
/// row's best correlation to a distance once on read. After appending a
/// series the profile equals the batch `ComputeStomp` result on the
/// retained window up to rounding (unit-tested, including across arbitrary
/// append/evict interleavings).
///
/// Windowed mode (`max_points > 0`): once the buffer is full, each append
/// evicts the oldest point and drops the profile row whose window left the
/// buffer. Retained rows whose recorded nearest neighbor was evicted are
/// *repaired* once, at the end of the Append/AppendAll call, against the
/// final retained window: a row whose neighbor is gone keeps its stale best
/// until then, which no reader can observe (the call holds the profile, and
/// callers such as the service's Dataset hold their lock across it). A
/// stale best only blocks offers it beats, and any offer that beats it is
/// retained, so the rows still pointing before the window start at the end
/// of the call are exactly the rows to rescan — each once, however many
/// points the call evicted. Repair walks the orphaned rows in ascending
/// order: the first row of a run gets its dots directly, and each following
/// row within a small gap steps the previous row's dots along the diagonal
/// recurrence in O(W). A call of B points therefore costs O(B·W) plus one
/// O(W·l) direct row per run of orphaned rows, and the maintained profile
/// is always the profile of the retained window, never a stale superset.
/// Amortized memory is bounded by O(max_points).
///
/// Normalization and re-anchoring: incremental statistics are kept on
/// values shifted by an anchor (z-normalized distances are shift
/// invariant). A fixed anchor degrades on long-lived drifting streams: the
/// variance of a window is computed as mean-of-squares minus square-of-mean
/// over the shifted values, which cancels catastrophically once the window
/// mean grows far past the window standard deviation (relative error
/// ~ eps * mean^2 / variance). When `reanchor` is on, the profile watches
/// that ratio and, once the retained window's mean-square exceeds ~1e6x its
/// variance, folds the current window mean into the anchor, shifts the
/// retained values in place, rebuilds the prefix sums and the per-window
/// stats, and recomputes the O(W) dot-product carry — keeping the
/// conditioning ratio bounded (~1e-10 relative error) for any drift.
/// Re-anchors are rate-limited to one per `length` appends, so their O(W l)
/// cost amortizes to O(W) per append — the same order as the regular
/// update. Each re-anchor bumps `anchor_epoch()`, which downstream snapshot
/// caches use to detect that the shifted values changed wholesale.
class StreamingProfile {
 public:
  /// Creates an empty streaming profile for subsequences of `length`.
  static Result<StreamingProfile> Create(std::size_t length,
                                         const StreamingOptions& options);

  /// Convenience overload: unbounded, re-anchoring on.
  static Result<StreamingProfile> Create(std::size_t length,
                                         double exclusion_fraction = 0.5);

  /// Appends one point. Fails only on non-finite input.
  Status Append(double value);

  /// True batch append: validates every value up front (so a bad value at
  /// index i rejects the whole batch instead of leaving a partial append),
  /// reserves all internal arrays once, and checks the allocation fault
  /// point once per batch instead of per point.
  Status AppendAll(std::span<const double> values);

  /// Points currently retained (== total appended when unbounded).
  std::size_t size() const { return values_.size(); }

  /// Subsequences currently retained (0 during warm-up).
  std::size_t NumSubsequences() const {
    return values_.size() >= length_ ? values_.size() - length_ + 1 : 0;
  }

  std::size_t length() const { return length_; }
  std::size_t max_points() const { return values_.max_points(); }
  /// Global stream position of the first retained point == total evicted.
  std::size_t window_start() const { return values_.start_index(); }
  std::size_t total_appended() const { return values_.total_appended(); }
  /// Incremented on every re-anchor; a change means every retained shifted
  /// value (and hence any snapshot materialized from them) changed.
  std::uint64_t anchor_epoch() const { return anchor_epoch_; }

  /// Materialized snapshot of the maintained profile over the retained
  /// window. O(W): each row's best correlation is converted to a distance
  /// and its neighbor index rebased to be window-relative (evicted
  /// neighbors can never appear — the call that evicted them repaired their
  /// rows before returning). Rows without an eligible non-trivial match
  /// hold +infinity / -1.
  MatrixProfile ProfileSnapshot() const;

  /// Top-k motifs / discords of the maintained profile, window-relative
  /// offsets. O(W + sorting of candidate rows) per call — independent of
  /// total appended history; the serving layer's result cache makes
  /// repeated reads at one generation O(1).
  std::vector<MotifEntry> TopMotifs(std::size_t k) const;
  std::vector<DiscordEntry> TopDiscords(std::size_t k) const;

  /// The retained (anchor-shifted) values, contiguous, oldest first.
  std::span<const double> values() const { return values_.values(); }

  /// Heap footprint of all maintained state.
  std::size_t MemoryBytes() const;

 private:
  /// A windowed profile reserves its O(W) scratch rows here, once, so
  /// steady-state appends and repairs never reallocate them.
  StreamingProfile(std::size_t length, std::size_t exclusion,
                   const StreamingOptions& options);

  double Mean(std::size_t offset) const;
  double Variance(std::size_t offset) const;

  /// Append core for a validated value; shared by Append and AppendAll.
  void AppendValidated(double value);
  /// Pushes the stats of the window at local offset `offset`.
  void PushWindowStats(std::size_t offset);
  /// Pops the oldest point's prefix boundary and the oldest window's row
  /// and stats. Rows orphaned by the eviction are left to FinishCall.
  void EvictOne();
  /// Ends an Append/AppendAll call: repairs the rows orphaned during it and
  /// notes the call's direct dot products with the kernel counters.
  void FinishCall();
  /// Rescans every retained row whose nearest neighbor left the window.
  void RepairOrphans();
  /// Folds the current window mean into the anchor if drift crossed the
  /// conditioning threshold (see class comment).
  void MaybeReanchor();

  std::size_t length_;
  std::size_t exclusion_;
  bool reanchor_ = true;
  double anchor_ = 0.0;  // fixed shift applied to all values
  bool anchored_ = false;
  std::uint64_t anchor_epoch_ = 0;
  std::size_t last_reanchor_total_ = 0;  // total_appended() at last re-anchor

  /// Retained shifted values; evicts per `max_points`.
  series::WindowedSeries values_;
  /// Prefix sums of the retained shifted values (and squares): entry i is
  /// the sum of retained values [0, i), so both always hold size() + 1
  /// entries and window sums are O(1) differences. Rebuilt (rebased to 0)
  /// on re-anchor; popped in lockstep with evictions.
  series::SlidingBuffer<double> prefix_;
  series::SlidingBuffer<double> prefix_sq_;
  /// Per-window stats for the retained windows, from Mean / Variance at
  /// admission (rebuilt on re-anchor): the mean, 1 / std (0 for a constant
  /// window) and 0.5 for a constant window (else 0), the operands of
  /// series::ConventionCorrelation.
  series::SlidingBuffer<double> window_mean_;
  series::SlidingBuffer<double> window_inv_std_;
  series::SlidingBuffer<double> window_half_const_;
  /// QT(j, previous newest window) for every window retained at the last
  /// append; entry 0 corresponds to global window offset last_dots_start_.
  /// `next_dots_` is the buffer the next append fills, then swaps in.
  std::vector<double> last_dots_;
  std::vector<double> next_dots_;
  std::size_t last_dots_start_ = 0;
  /// The maintained profile rows for retained windows: best_rho_[w] /
  /// neighbors_[w] describe the window at local offset w (-inf / -1: no
  /// eligible neighbor yet). Neighbors are stored as *global* stream
  /// offsets so eviction never needs an O(W) rebase sweep; ProfileSnapshot
  /// rebases on the way out.
  series::SlidingBuffer<double> best_rho_;
  series::SlidingBuffer<std::int64_t> neighbors_;
  /// Scratch reused across calls: one row's candidate correlations, the
  /// repair chain's dots (with headroom for stepping along diagonals), and
  /// the orphaned rows found at the end of a call.
  std::vector<double> rho_row_;
  std::vector<double> repair_dots_;
  std::vector<std::size_t> orphans_;
  /// Direct dot products of the current call, noted by FinishCall.
  std::uint64_t direct_dots_ = 0;
};

}  // namespace valmod::mp

#endif  // VALMOD_MP_STREAMING_H_
