// Tests for the partial distance profile storage (p best-LB entries per
// subsequence).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "core/lower_bound.h"
#include "core/partial_profile.h"

namespace valmod::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(PartialProfileTest, KeepsSmallestBaseLbs) {
  PartialProfileSet set(1, 3);
  const double lbs[] = {5.0, 1.0, 4.0, 2.0, 9.0, 3.0};
  for (int i = 0; i < 6; ++i) {
    set.Offer(0, i, /*dot=*/0.0, lbs[i]);
  }
  set.FinishSeeding(0);

  auto row = set.Row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0].base_lb, 1.0);
  EXPECT_DOUBLE_EQ(row[1].base_lb, 2.0);
  EXPECT_DOUBLE_EQ(row[2].base_lb, 3.0);
  EXPECT_EQ(row[0].match, 1);
  EXPECT_EQ(row[1].match, 3);
  EXPECT_EQ(row[2].match, 5);
}

TEST(PartialProfileTest, MaxBaseLbIsPthSmallestWhenFull) {
  PartialProfileSet set(1, 2);
  set.Offer(0, 0, 0.0, 7.0);
  set.Offer(0, 1, 0.0, 3.0);
  set.Offer(0, 2, 0.0, 5.0);
  set.FinishSeeding(0);
  EXPECT_DOUBLE_EQ(set.max_base_lb(0), 5.0);
}

TEST(PartialProfileTest, UnderfullRowHasInfiniteBound) {
  // Fewer candidates than p: the stored set is exhaustive, so nothing is
  // unexplored and the bound must be vacuous (+inf).
  PartialProfileSet set(1, 5);
  set.Offer(0, 0, 0.0, 2.0);
  set.Offer(0, 1, 0.0, 1.0);
  set.FinishSeeding(0);
  EXPECT_EQ(set.max_base_lb(0), kInf);
  EXPECT_EQ(set.Row(0).size(), 2u);
}

TEST(PartialProfileTest, RowsAreIndependent) {
  PartialProfileSet set(3, 2);
  set.Offer(0, 5, 0.0, 1.0);
  set.Offer(2, 6, 0.0, 2.0);
  set.FinishSeeding(0);
  set.FinishSeeding(1);
  set.FinishSeeding(2);
  EXPECT_EQ(set.Row(0).size(), 1u);
  EXPECT_EQ(set.Row(1).size(), 0u);
  EXPECT_EQ(set.Row(2).size(), 1u);
  EXPECT_EQ(set.rows(), 3u);
  EXPECT_EQ(set.capacity_per_row(), 2u);
}

TEST(PartialProfileTest, CompactionPreservesOrder) {
  PartialProfileSet set(1, 4);
  set.Offer(0, 10, 0.0, 1.0);
  set.Offer(0, 20, 0.0, 2.0);
  set.Offer(0, 30, 0.0, 3.0);
  set.Offer(0, 40, 0.0, 4.0);
  set.FinishSeeding(0);

  set.CompactRow(0, [](const Entry& e) { return e.match == 20; });
  auto row = set.Row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].match, 10);
  EXPECT_EQ(row[1].match, 30);
  EXPECT_EQ(row[2].match, 40);

  // The frozen bound is untouched by compaction.
  EXPECT_DOUBLE_EQ(set.max_base_lb(0), 4.0);
}

TEST(PartialProfileTest, CompactAllLeavesEmptyRow) {
  PartialProfileSet set(1, 2);
  set.Offer(0, 1, 0.0, 1.0);
  set.Offer(0, 2, 0.0, 2.0);
  set.FinishSeeding(0);
  set.CompactRow(0, [](const Entry&) { return true; });
  EXPECT_EQ(set.Row(0).size(), 0u);
}

TEST(PartialProfileTest, ResetClearsRow) {
  PartialProfileSet set(1, 2);
  set.Offer(0, 1, 0.0, 1.0);
  set.Offer(0, 2, 0.0, 2.0);
  set.FinishSeeding(0);

  set.Reset(0);
  EXPECT_EQ(set.Row(0).size(), 0u);
  EXPECT_EQ(set.max_base_lb(0), kInf);

  set.Offer(0, 7, 0.0, 0.5);
  set.FinishSeeding(0);
  EXPECT_EQ(set.Row(0)[0].match, 7);
}

TEST(PartialProfileTest, MutableRowUpdatesStick) {
  PartialProfileSet set(1, 2);
  set.Offer(0, 1, 5.0, 1.0);
  set.FinishSeeding(0);
  for (Entry& e : set.MutableRow(0)) {
    e.dot += 1.5;
    e.distance = 3.0;
  }
  EXPECT_DOUBLE_EQ(set.Row(0)[0].dot, 6.5);
  EXPECT_DOUBLE_EQ(set.Row(0)[0].distance, 3.0);
}

TEST(PartialProfileTest, ManyOffersStressHeap) {
  // 1000 offers into p = 8; result must be exactly the 8 smallest.
  PartialProfileSet set(1, 8);
  std::vector<double> lbs;
  for (int i = 0; i < 1000; ++i) {
    const double lb = static_cast<double>((i * 7919) % 10007);
    lbs.push_back(lb);
    set.Offer(0, i, 0.0, lb);
  }
  set.FinishSeeding(0);
  std::sort(lbs.begin(), lbs.end());
  auto row = set.Row(0);
  ASSERT_EQ(row.size(), 8u);
  for (std::size_t e = 0; e < 8; ++e) {
    EXPECT_DOUBLE_EQ(row[e].base_lb, lbs[e]) << e;
  }
  EXPECT_DOUBLE_EQ(set.max_base_lb(0), lbs[7]);
}

// -- Pre-filtered seeding vs the plain heap --------------------------------

/// The heap Offer without any shortcut, kept as the oracle: every offer is
/// compared against the root, and accepted ones go through the heap.
class ReferenceRow {
 public:
  explicit ReferenceRow(std::size_t p) : p_(p) {}

  bool Offer(int64_t match, double dot, double base_lb) {
    if (entries_.size() < p_) {
      entries_.push_back(Entry{match, dot, base_lb, 0.0});
      std::push_heap(entries_.begin(), entries_.end(), Less);
      return true;
    }
    if (base_lb >= entries_[0].base_lb) return false;
    std::pop_heap(entries_.begin(), entries_.end(), Less);
    entries_.back() = Entry{match, dot, base_lb, 0.0};
    std::push_heap(entries_.begin(), entries_.end(), Less);
    return true;
  }

  /// FinishSeeding's order.
  std::vector<Entry> Finish() {
    std::sort(entries_.begin(), entries_.end(), Less);
    return entries_;
  }

 private:
  static bool Less(const Entry& a, const Entry& b) {
    return a.base_lb < b.base_lb;
  }
  std::size_t p_;
  std::vector<Entry> entries_;
};

/// One offered candidate: a constant partner stores the base LB of rho = 0
/// (sqrt(l)), whatever its correlation or distance says.
struct Candidate {
  bool constant_partner;
  double rho;       // scan key (0.0 for a constant partner)
  double distance;  // re-seeding key (sqrt(l) for a constant partner)
  double dot;
};

constexpr std::size_t kLength = 64;  // sqrt(l) = 8 exactly

/// Candidates drawn from coarse grids so base LBs tie often: every rho <= 0
/// and every constant partner share base sqrt(l), and distances in
/// (sqrt(l), sqrt(2l)) give non-constant base LBs just below it, so
/// constant partners both become and get evicted as the worst entry.
std::vector<Candidate> RandomCandidates(std::mt19937_64& rng,
                                        std::size_t count) {
  const double l = static_cast<double>(kLength);
  std::uniform_int_distribution<int> rho_step(-8, 16);
  std::uniform_int_distribution<int> d_step(0, 48);
  std::uniform_int_distribution<int> kind(0, 9);
  std::vector<Candidate> out;
  for (std::size_t k = 0; k < count; ++k) {
    Candidate c;
    c.constant_partner = kind(rng) < 2;
    c.dot = static_cast<double>(k) * 0.25;
    if (c.constant_partner) {
      c.rho = 0.0;
      c.distance = std::sqrt(l);
    } else {
      c.rho = rho_step(rng) / 16.0;
      c.distance = std::sqrt(2.0 * l) * (d_step(rng) / 32.0);
    }
    out.push_back(c);
  }
  return out;
}

double ScanBaseLb(const Candidate& c) {
  return BaseLowerBound(c.rho, kLength);
}

double ReseedBaseLb(const Candidate& c) {
  return c.constant_partner ? BaseLowerBound(0.0, kLength)
                            : BaseLowerBoundFromDistance(c.distance, kLength);
}

/// `label` names the failing configuration (a seed or p).
void ExpectSameEntries(std::span<const Entry> got,
                       const std::vector<Entry>& want, std::uint64_t label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t e = 0; e < want.size(); ++e) {
    EXPECT_EQ(got[e].match, want[e].match) << label << " entry " << e;
    EXPECT_EQ(got[e].dot, want[e].dot) << label << " entry " << e;
    EXPECT_EQ(got[e].base_lb, want[e].base_lb) << label << " entry " << e;
  }
}

TEST(PartialProfilePrefilterTest, InlineOfferMatchesReferenceHeap) {
  std::mt19937_64 rng(11);
  for (std::size_t p : {1u, 3u, 10u}) {
    PartialProfileSet set(1, p);
    ReferenceRow reference(p);
    const std::vector<Candidate> candidates = RandomCandidates(rng, 500);
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      const double base_lb = ScanBaseLb(candidates[k]);
      const int64_t match = static_cast<int64_t>(k);
      EXPECT_EQ(set.Offer(0, match, candidates[k].dot, base_lb),
                reference.Offer(match, candidates[k].dot, base_lb));
    }
    set.FinishSeeding(0);
    ExpectSameEntries(set.Row(0), reference.Finish(), p);
  }
}

TEST(PartialProfilePrefilterTest, FilteredSeedingStoresReferenceEntries) {
  // Both seeding loops skip an offer when the row's key proves Offer would
  // reject it; the stored entries must be exactly the reference's, in the
  // same order.
  std::size_t filtered_scan = 0, filtered_reseed = 0;
  std::size_t constant_worst_scan = 0, constant_worst_reseed = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t p = 1 + seed % 10;
    const std::vector<Candidate> candidates = RandomCandidates(rng, 400);
    const auto constant_worst = [&](const PartialProfileSet& set) {
      return set.Full(0) &&
             candidates[static_cast<std::size_t>(set.Worst(0).match)]
                 .constant_partner;
    };

    // Initial scan: correlation keys.
    {
      PartialProfileSet set(1, p);
      ReferenceRow reference(p);
      double key = -std::numeric_limits<double>::infinity();
      for (std::size_t k = 0; k < candidates.size(); ++k) {
        const Candidate& c = candidates[k];
        const int64_t match = static_cast<int64_t>(k);
        reference.Offer(match, c.dot, ScanBaseLb(c));
        if (c.rho <= key) {
          ++filtered_scan;
          continue;
        }
        if (set.Offer(0, match, c.dot, ScanBaseLb(c))) {
          key = RhoOfferKey(set, 0, kLength, [&](const Entry& e) {
            return candidates[static_cast<std::size_t>(e.match)].rho;
          });
          if (constant_worst(set)) ++constant_worst_scan;
        }
      }
      set.FinishSeeding(0);
      ExpectSameEntries(set.Row(0), reference.Finish(), seed);
    }

    // Re-seeding: distance keys.
    {
      PartialProfileSet set(1, p);
      ReferenceRow reference(p);
      double key = std::numeric_limits<double>::infinity();
      for (std::size_t k = 0; k < candidates.size(); ++k) {
        const Candidate& c = candidates[k];
        const int64_t match = static_cast<int64_t>(k);
        reference.Offer(match, c.dot, ReseedBaseLb(c));
        if (c.distance >= key) {
          ++filtered_reseed;
          continue;
        }
        if (set.Offer(0, match, c.dot, ReseedBaseLb(c))) {
          key = DistanceOfferKey(set, 0, kLength, [&](const Entry& e) {
            return candidates[static_cast<std::size_t>(e.match)].distance;
          });
          if (constant_worst(set)) ++constant_worst_reseed;
        }
      }
      set.FinishSeeding(0);
      ExpectSameEntries(set.Row(0), reference.Finish(), seed);
    }
  }
  // The property is only tested if the filters fire and constant partners
  // sit at the root while they do.
  EXPECT_GT(filtered_scan, 10000u);
  EXPECT_GT(filtered_reseed, 10000u);
  EXPECT_GT(constant_worst_scan, 100u);
  EXPECT_GT(constant_worst_reseed, 100u);
}

TEST(PartialProfilePrefilterTest, KeysAreOffWhileRowIsNotFull) {
  PartialProfileSet set(1, 3);
  set.Offer(0, 0, 0.0, BaseLowerBound(0.5, kLength));
  const auto rho_of = [](const Entry&) { return 0.5; };
  const auto distance_of = [](const Entry&) { return 1.0; };
  EXPECT_EQ(RhoOfferKey(set, 0, kLength, rho_of), -kInf);
  EXPECT_EQ(DistanceOfferKey(set, 0, kLength, distance_of), kInf);
}

TEST(PartialProfilePrefilterTest, KeyOfConstantPartnerDisarmsDistanceFilter) {
  // A constant partner stores base sqrt(l) at distance sqrt(l), but a
  // non-constant candidate at a slightly larger distance has a smaller
  // base LB and must still get in: the distance key is off for that root.
  const double l = static_cast<double>(kLength);
  PartialProfileSet set(1, 1);
  ASSERT_TRUE(set.Offer(0, 0, 0.0, BaseLowerBound(0.0, kLength)));
  const auto distance_of = [&](const Entry&) { return std::sqrt(l); };
  EXPECT_EQ(DistanceOfferKey(set, 0, kLength, distance_of), kInf);
  const double farther = std::sqrt(l) * 1.1;
  EXPECT_LT(BaseLowerBoundFromDistance(farther, kLength),
            BaseLowerBound(0.0, kLength));
  EXPECT_TRUE(set.Offer(0, 1, 0.0,
                        BaseLowerBoundFromDistance(farther, kLength)));

  // In the scan the same root is keyed at rho 0.0: its base is exactly
  // BaseLowerBound(0.0), and every rho <= 0 has that base too.
  PartialProfileSet scan(1, 1);
  ASSERT_TRUE(scan.Offer(0, 0, 0.0, BaseLowerBound(0.0, kLength)));
  EXPECT_EQ(RhoOfferKey(scan, 0, kLength, [](const Entry&) { return 0.0; }),
            0.0);
}

}  // namespace
}  // namespace valmod::core
