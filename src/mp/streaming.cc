#include "mp/streaming.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/fault.h"
#include "series/znorm.h"
#include "simd/dispatch.h"

namespace valmod::mp {

namespace {

/// Absolute variance threshold for constant-window classification in the
/// streaming setting (the batch path scales this with the global variance,
/// which is unknowable mid-stream; anchoring keeps values moderate).
constexpr double kStreamConstantVariance = 1e-12;

/// Re-anchor once the retained window's squared mean exceeds this multiple
/// of its variance: past that ratio the mean-of-squares / square-of-mean
/// cancellation starts eating into the ~1e-10 accuracy the parity suites
/// rely on (relative variance error ~ eps * ratio).
constexpr double kReanchorMeanVarianceRatio = 1e6;

/// Repair chaining (see RepairOrphans): an orphaned row at most
/// kRepairMaxGap rows after the previous repaired row steps that row's dots
/// along the diagonal recurrence, O(gap · W), instead of recomputing them
/// directly, O(W · l); after kRepairMaxChain steps the chain restarts
/// directly, which bounds both the rounding the recurrence accumulates and
/// the headroom the stepped dots need.
constexpr std::size_t kRepairMaxGap = 8;
constexpr std::size_t kRepairMaxChain = 64;

/// Largest of x[0, n), -inf when n == 0. Four independent running maxima
/// keep the reduction off one serial compare chain.
double MaxOf(const double* x, std::size_t n) {
  double lane[4] = {-kInfinity, -kInfinity, -kInfinity, -kInfinity};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t k = 0; k < 4; ++k) lane[k] = std::max(lane[k], x[i + k]);
  }
  for (; i < n; ++i) lane[0] = std::max(lane[0], x[i]);
  return std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
}

}  // namespace

std::vector<MotifEntry> TopKMotifs(const MatrixProfile& profile,
                                   std::size_t k) {
  if (k == 0) return {};
  std::vector<MotifEntry> pairs;
  pairs.reserve(profile.distances.size());
  for (std::size_t i = 0; i < profile.distances.size(); ++i) {
    const double d = profile.distances[i];
    const std::int64_t neighbor = profile.indices[i];
    if (!std::isfinite(d) || neighbor < 0) continue;
    const std::size_t j = static_cast<std::size_t>(neighbor);
    MotifEntry entry;
    entry.offset_a = std::min(i, j);
    entry.offset_b = std::max(i, j);
    entry.distance = d;
    pairs.push_back(entry);
  }
  // Mutual nearest neighbors produce the same unordered pair twice (in a
  // maintained profile possibly ulps apart: a repaired row gets its dots
  // directly or along a different diagonal chain than the append pass,
  // and evaluates the correlation with its operands in the other order).
  // Deduplicate deterministically: sort by (pair, distance), keep the
  // smaller distance.
  std::sort(pairs.begin(), pairs.end(),
            [](const MotifEntry& a, const MotifEntry& b) {
              if (a.offset_a != b.offset_a) return a.offset_a < b.offset_a;
              if (a.offset_b != b.offset_b) return a.offset_b < b.offset_b;
              return a.distance < b.distance;
            });
  pairs.erase(std::unique(pairs.begin(), pairs.end(),
                          [](const MotifEntry& a, const MotifEntry& b) {
                            return a.offset_a == b.offset_a &&
                                   a.offset_b == b.offset_b;
                          }),
              pairs.end());
  std::sort(pairs.begin(), pairs.end(),
            [](const MotifEntry& a, const MotifEntry& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              if (a.offset_a != b.offset_a) return a.offset_a < b.offset_a;
              return a.offset_b < b.offset_b;
            });
  if (pairs.size() > k) pairs.resize(k);
  return pairs;
}

std::vector<DiscordEntry> TopKDiscords(const MatrixProfile& profile,
                                       std::size_t k) {
  if (k == 0) return {};
  std::vector<DiscordEntry> candidates;
  candidates.reserve(profile.distances.size());
  for (std::size_t i = 0; i < profile.distances.size(); ++i) {
    const double d = profile.distances[i];
    if (!std::isfinite(d) || profile.indices[i] < 0) continue;
    DiscordEntry entry;
    entry.offset = i;
    entry.neighbor = profile.indices[i];
    entry.distance = d;
    candidates.push_back(entry);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const DiscordEntry& a, const DiscordEntry& b) {
              if (a.distance != b.distance) return a.distance > b.distance;
              return a.offset < b.offset;
            });
  std::vector<DiscordEntry> out;
  for (const DiscordEntry& candidate : candidates) {
    if (out.size() >= k) break;
    bool overlaps = false;
    for (const DiscordEntry& taken : out) {
      const std::size_t gap = taken.offset > candidate.offset
                                  ? taken.offset - candidate.offset
                                  : candidate.offset - taken.offset;
      if (gap < profile.exclusion_zone) {
        overlaps = true;
        break;
      }
    }
    if (!overlaps) out.push_back(candidate);
  }
  return out;
}

StreamingProfile::StreamingProfile(std::size_t length, std::size_t exclusion,
                                   const StreamingOptions& options)
    : length_(length),
      exclusion_(exclusion),
      reanchor_(options.reanchor),
      values_(options.max_points) {
  if (options.max_points == 0) return;
  const std::size_t rows = options.max_points - length + 1;
  last_dots_.reserve(rows);
  next_dots_.reserve(rows);
  rho_row_.reserve(rows);
  repair_dots_.reserve(kRepairMaxChain + rows);
  orphans_.reserve(rows);
}

Result<StreamingProfile> StreamingProfile::Create(
    std::size_t length, const StreamingOptions& options) {
  if (length < 2) {
    return Status::InvalidArgument("subsequence length must be >= 2");
  }
  if (options.exclusion_fraction < 0.0 || options.exclusion_fraction > 1.0) {
    return Status::InvalidArgument("exclusion_fraction must be in [0, 1]");
  }
  if (options.max_points != 0 && options.max_points < 2 * length) {
    return Status::InvalidArgument(
        "max_points must be 0 (unbounded) or >= 2 * length (" +
        std::to_string(2 * length) + "); got " +
        std::to_string(options.max_points));
  }
  return StreamingProfile(
      length, ExclusionZoneFor(length, options.exclusion_fraction), options);
}

Result<StreamingProfile> StreamingProfile::Create(std::size_t length,
                                                  double exclusion_fraction) {
  StreamingOptions options;
  options.exclusion_fraction = exclusion_fraction;
  return Create(length, options);
}

double StreamingProfile::Mean(std::size_t offset) const {
  return (prefix_[offset + length_] - prefix_[offset]) /
         static_cast<double>(length_);
}

double StreamingProfile::Variance(std::size_t offset) const {
  const double inv_len = 1.0 / static_cast<double>(length_);
  const double mean = (prefix_[offset + length_] - prefix_[offset]) * inv_len;
  const double mean_sq =
      (prefix_sq_[offset + length_] - prefix_sq_[offset]) * inv_len;
  const double var = mean_sq - mean * mean;
  return var > 0.0 ? var : 0.0;
}

void StreamingProfile::PushWindowStats(std::size_t offset) {
  const double var = Variance(offset);
  const bool constant = var <= kStreamConstantVariance;
  window_mean_.PushBack(Mean(offset));
  window_inv_std_.PushBack(constant ? 0.0 : 1.0 / std::sqrt(var));
  window_half_const_.PushBack(constant ? 0.5 : 0.0);
}

Status StreamingProfile::Append(double value) {
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("non-finite value appended");
  }
  AppendValidated(value);
  FinishCall();
  return Status::Ok();
}

Status StreamingProfile::AppendAll(std::span<const double> values) {
  // Validate the whole batch up front: a bad value rejects the batch
  // atomically instead of leaving the points before it appended (the old
  // per-point loop's behavior, which forced callers to treat every batch
  // error as a possibly-partial write).
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument("non-finite value at index " +
                                     std::to_string(i));
    }
  }
  if (values.empty()) return Status::Ok();
  // Models the batch's array growth failing, once per batch — the per-point
  // core below never allocates unpredictably because of the reserves.
  VALMOD_RETURN_IF_ERROR(VALMOD_FAULT_POINT("streaming.append.alloc"));
  const std::size_t add = values.size();
  values_.Reserve(add);
  prefix_.Reserve(add + 1);
  prefix_sq_.Reserve(add + 1);
  window_mean_.Reserve(add);
  window_inv_std_.Reserve(add);
  window_half_const_.Reserve(add);
  best_rho_.Reserve(add);
  neighbors_.Reserve(add);
  for (const double value : values) AppendValidated(value);
  FinishCall();
  return Status::Ok();
}

void StreamingProfile::AppendValidated(double value) {
  if (!anchored_) {
    anchor_ = value;
    anchored_ = true;
  }
  const double shifted = value - anchor_;
  if (prefix_.size() == 0) {
    prefix_.PushBack(0.0);
    prefix_sq_.PushBack(0.0);
  }
  prefix_.PushBack(prefix_.back() + shifted);
  prefix_sq_.PushBack(prefix_sq_.back() + shifted * shifted);
  if (values_.Append(shifted) > 0) EvictOne();

  const std::size_t n = values_.size();
  if (n < length_) return;  // warm-up

  const std::size_t base = values_.start_index();
  const double* v = values_.values().data();
  const std::size_t m = n - length_;  // newest window offset (local)
  PushWindowStats(m);
  best_rho_.PushBack(-kInfinity);
  neighbors_.PushBack(-1);
  if (m == 0) {
    last_dots_.assign(1, series::DotProduct(v, v, length_));
    last_dots_start_ = base;
    ++direct_dots_;
    MaybeReanchor();
    return;
  }

  // Dots of the new window vs every retained window: derive from the
  // previous newest window's dots with the diagonal recurrence; only
  // QT(0, m) needs a direct O(l) product. `last_dots_` is addressed by
  // global window offset (entry 0 = last_dots_start_), so an eviction
  // between appends just shifts the lookup — the dropped entry is exactly
  // the one no retained window needs anymore.
  next_dots_.resize(m + 1);
  double* dots = next_dots_.data();
  dots[0] = series::DotProduct(v, v + m, length_);
  ++direct_dots_;
  const double* prev = last_dots_.data() + (base - last_dots_start_);
  const double head_prev = v[m - 1];
  const double tail_new = v[m + length_ - 1];
  for (std::size_t j = 1; j <= m; ++j) {
    dots[j] = prev[j - 1] - v[j - 1] * head_prev +
              v[j + length_ - 1] * tail_new;
  }
  std::swap(last_dots_, next_dots_);
  last_dots_start_ = base;

  // Offer the new window to every eligible retained row and take its own
  // best, in three passes: the candidate correlations (vectorized), the row
  // updates (strict >: an equal offer keeps the incumbent), then the new
  // row's first maximum.
  if (m >= exclusion_) {
    const std::size_t cols = m - exclusion_ + 1;
    rho_row_.resize(cols);
    double* row = rho_row_.data();
    const double* mean = window_mean_.Data();
    const double* inv_std = window_inv_std_.Data();
    const double* half_const = window_half_const_.Data();
    const double inv_len = 1.0 / static_cast<double>(length_);
    const double mean_m = mean[m];
    const double inv_std_m = inv_std[m];
    const double half_const_m = half_const[m];
    for (std::size_t j = 0; j < cols; ++j) {
      row[j] = series::ConventionCorrelation(dots[j], inv_len, mean[j], mean_m,
                                             inv_std[j], inv_std_m,
                                             half_const[j], half_const_m);
    }
    double* best = best_rho_.Data();
    std::int64_t* neighbor = neighbors_.Data();
    const std::int64_t id = static_cast<std::int64_t>(base + m);
    for (std::size_t j = 0; j < cols; ++j) {
      if (row[j] > best[j]) {
        best[j] = row[j];
        neighbor[j] = id;
      }
    }
    const double top = MaxOf(row, cols);
    best[m] = top;
    neighbor[m] = static_cast<std::int64_t>(base) +
                  (std::find(row, row + cols, top) - row);
  }
  MaybeReanchor();
}

void StreamingProfile::EvictOne() {
  // values_ already dropped its oldest point; keep the prefix boundaries,
  // the window stats and the profile rows in lockstep. Prefix entries are
  // sums from a fixed origin, so dropping the oldest boundary leaves every
  // window difference intact.
  prefix_.PopFront();
  prefix_sq_.PopFront();
  if (best_rho_.size() == 0) return;  // W >= 2l makes this unreachable
  window_mean_.PopFront();
  window_inv_std_.PopFront();
  window_half_const_.PopFront();
  best_rho_.PopFront();
  neighbors_.PopFront();
}

void StreamingProfile::FinishCall() {
  // Once the window is full every append evicts; before that (and always
  // when unbounded) no row can point before the window start.
  if (values_.start_index() > 0) RepairOrphans();
  if (direct_dots_ > 0) {
    simd::NoteKernelCalls(simd::KernelKind::kDotProduct, direct_dots_);
    direct_dots_ = 0;
  }
}

void StreamingProfile::RepairOrphans() {
  const std::int64_t base = static_cast<std::int64_t>(values_.start_index());
  const std::size_t rows = best_rho_.size();
  const std::int64_t* neighbor = neighbors_.Data();
  orphans_.clear();
  for (std::size_t w = 0; w < rows; ++w) {
    if (neighbor[w] >= 0 && neighbor[w] < base) orphans_.push_back(w);
  }
  if (orphans_.empty()) return;

  const double* v = values_.values().data();
  const double* mean = window_mean_.Data();
  const double* inv_std = window_inv_std_.Data();
  const double* half_const = window_half_const_.Data();
  const double inv_len = 1.0 / static_cast<double>(length_);
  const auto dot = simd::ActiveKernels().dot_product;
  rho_row_.resize(rows);
  repair_dots_.resize(kRepairMaxChain + rows);
  double* row = rho_row_.data();
  // dots[j] = QT(dots_row, j). Stepping to the next row along the diagonal
  // recurrence QT(r+1, j) = QT(r, j-1) - v[r] v[j-1] + v[r+l] v[j+l-1]
  // updates every cell in place and moves `dots` one cell left, into the
  // headroom, where the one new entry QT(r+1, 0) is computed directly.
  double* dots = nullptr;
  std::size_t dots_row = 0;
  std::size_t chain = 0;
  for (const std::size_t r : orphans_) {
    const std::size_t gap = r - dots_row;
    if (dots != nullptr && gap <= kRepairMaxGap &&
        chain + gap <= kRepairMaxChain) {
      for (; dots_row < r; ++dots_row) {
        const double out = v[dots_row];
        const double in = v[dots_row + length_];
        for (std::size_t c = 0; c + 1 < rows; ++c) {
          dots[c] = dots[c] - out * v[c] + in * v[c + length_];
        }
        --dots;
        dots[0] = dot(v + dots_row + 1, v, length_);
      }
      direct_dots_ += gap;
      chain += gap;
    } else {
      dots = repair_dots_.data() + kRepairMaxChain;
      for (std::size_t j = 0; j < rows; ++j) {
        dots[j] = dot(v + r, v + j, length_);
      }
      direct_dots_ += rows;
      dots_row = r;
      chain = 0;
    }

    for (std::size_t j = 0; j < rows; ++j) {
      row[j] = series::ConventionCorrelation(dots[j], inv_len, mean[r],
                                             mean[j], inv_std[r], inv_std[j],
                                             half_const[r], half_const[j]);
    }
    // Eligible candidates lie outside the exclusion band around r. Prefer
    // the *youngest* window among equal candidates: a young neighbor
    // survives ~W more evictions, so ties in repetitive data do not
    // re-orphan this row on every eviction and trigger repeated repairs.
    const std::size_t band_begin = r + 1 > exclusion_ ? r + 1 - exclusion_ : 0;
    const std::size_t band_end = std::min(rows, r + exclusion_);
    std::fill(row + band_begin, row + band_end, -kInfinity);
    const double top = MaxOf(row, rows);
    std::int64_t arg = -1;
    if (top > -kInfinity) {
      arg = static_cast<std::int64_t>(rows) - 1;
      while (row[arg] != top) --arg;
    }
    best_rho_[r] = top;
    neighbors_[r] = arg < 0 ? -1 : base + arg;
  }
}

void StreamingProfile::MaybeReanchor() {
  if (!reanchor_) return;
  const std::size_t n = values_.size();
  if (n < length_) return;
  // Rate limit: at most one re-anchor per `length` appends bounds the
  // O(W l) recompute below to O(W) amortized per append — the same order
  // as the regular update pass — even on pathological streams that keep
  // re-triggering (e.g. constant values at a large offset, whose variance
  // is exactly 0).
  if (values_.total_appended() < last_reanchor_total_ + length_) return;
  const double inv = 1.0 / static_cast<double>(n);
  const double mean = (prefix_[n] - prefix_[0]) * inv;
  const double mean_sq = (prefix_sq_[n] - prefix_sq_[0]) * inv;
  const double var = std::max(0.0, mean_sq - mean * mean);
  if (mean == 0.0 || mean * mean <= kReanchorMeanVarianceRatio * var) return;

  // Fold the window mean into the anchor. Correlations already recorded
  // are untouched: they were computed while the ratio was still below the
  // threshold, and z-normalized distances are invariant under the shift.
  anchor_ += mean;
  for (double& x : values_.mutable_values()) x -= mean;
  prefix_.Clear();
  prefix_sq_.Clear();
  prefix_.Reserve(n + 1);
  prefix_sq_.Reserve(n + 1);
  prefix_.PushBack(0.0);
  prefix_sq_.PushBack(0.0);
  for (const double x : values_.values()) {
    prefix_.PushBack(prefix_.back() + x);
    prefix_sq_.PushBack(prefix_sq_.back() + x * x);
  }
  const std::size_t m = n - length_;
  window_mean_.Clear();
  window_inv_std_.Clear();
  window_half_const_.Clear();
  for (std::size_t w = 0; w <= m; ++w) PushWindowStats(w);
  // The dot-product carry is a sum of products of shifted values, which is
  // *not* shift invariant — recompute it directly against the re-shifted
  // values.
  const double* v = values_.values().data();
  const auto dot = simd::ActiveKernels().dot_product;
  last_dots_.resize(m + 1);
  for (std::size_t w = 0; w <= m; ++w) {
    last_dots_[w] = dot(v + w, v + m, length_);
  }
  direct_dots_ += m + 1;
  last_dots_start_ = values_.start_index();
  ++anchor_epoch_;
  last_reanchor_total_ = values_.total_appended();
}

MatrixProfile StreamingProfile::ProfileSnapshot() const {
  MatrixProfile profile;
  profile.subsequence_length = length_;
  profile.exclusion_zone = exclusion_;
  const std::size_t rows = best_rho_.size();
  profile.distances.resize(rows);
  profile.indices.resize(rows);
  const std::int64_t base = static_cast<std::int64_t>(values_.start_index());
  for (std::size_t w = 0; w < rows; ++w) {
    const bool matched = neighbors_[w] >= 0;
    profile.distances[w] =
        matched ? series::DistanceFromCorrelation(best_rho_[w], length_)
                : kInfinity;
    profile.indices[w] = matched ? neighbors_[w] - base : -1;
  }
  return profile;
}

std::vector<MotifEntry> StreamingProfile::TopMotifs(std::size_t k) const {
  return TopKMotifs(ProfileSnapshot(), k);
}

std::vector<DiscordEntry> StreamingProfile::TopDiscords(std::size_t k) const {
  return TopKDiscords(ProfileSnapshot(), k);
}

std::size_t StreamingProfile::MemoryBytes() const {
  const std::size_t scratch =
      (last_dots_.capacity() + next_dots_.capacity() + rho_row_.capacity() +
       repair_dots_.capacity()) *
          sizeof(double) +
      orphans_.capacity() * sizeof(std::size_t);
  return values_.MemoryBytes() + prefix_.MemoryBytes() +
         prefix_sq_.MemoryBytes() + window_mean_.MemoryBytes() +
         window_inv_std_.MemoryBytes() + window_half_const_.MemoryBytes() +
         best_rho_.MemoryBytes() + neighbors_.MemoryBytes() + scratch;
}

}  // namespace valmod::mp
