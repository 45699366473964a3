// Tests for the plan-caching FFT layer: table-twiddle accuracy against a
// direct DFT (the regression guard for the old error-accumulating
// `w *= wlen` recurrence), the real-input pack-two-reals path, and the
// per-size plan registry.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "fft/fft.h"
#include "fft/plan.h"

namespace valmod::fft {
namespace {

/// Direct O(n^2) DFT with table-based twiddles (index j*k mod n), accurate
/// to ~sqrt(n) rounding: the ground truth for transform accuracy.
std::vector<std::complex<double>> DirectDft(
    const std::vector<std::complex<double>>& input) {
  const std::size_t n = input.size();
  std::vector<std::complex<double>> roots(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(j) /
                         static_cast<double>(n);
    roots[j] = {std::cos(angle), std::sin(angle)};
  }
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      acc += input[t] * roots[(k * t) % n];
    }
    out[k] = acc;
  }
  return out;
}

class PlanDftAccuracyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlanDftAccuracyTest, TransformMatchesDirectDft) {
  const std::size_t n = GetParam();
  Rng rng(n + 5);
  std::vector<std::complex<double>> data(n);
  for (auto& x : data) x = {rng.Gaussian(), rng.Gaussian()};
  const std::vector<std::complex<double>> expected = DirectDft(data);

  ASSERT_TRUE(Transform(data, Direction::kForward).ok());
  // Transform values are O(sqrt(n)); 1e-8 leaves two orders of margin over
  // the direct DFT's own rounding at 2^14 while catching any twiddle drift
  // (the old recurrence drifted well past this at large sizes).
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(data[k].real(), expected[k].real(), 1e-8) << "n=" << n
                                                          << " k=" << k;
    EXPECT_NEAR(data[k].imag(), expected[k].imag(), 1e-8) << "n=" << n
                                                          << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(SizesUpTo2p14, PlanDftAccuracyTest,
                         ::testing::Values(2, 8, 64, 512, 4096, 16384));

class RealPathTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RealPathTest, RealForwardMatchesComplexTransform) {
  const std::size_t n = GetParam();
  Rng rng(n + 13);
  std::vector<double> input(n);
  for (auto& x : input) x = rng.Gaussian();

  const auto plan = GetPlan(n);
  std::vector<std::complex<double>> spectrum(plan->half_spectrum_size());
  plan->RealForward(input, spectrum);

  std::vector<std::complex<double>> reference(n);
  for (std::size_t i = 0; i < n; ++i) reference[i] = input[i];
  plan->Forward(reference);

  for (std::size_t k = 0; k <= n / 2; ++k) {
    EXPECT_NEAR(spectrum[k].real(), reference[k].real(), 1e-9)
        << "n=" << n << " k=" << k;
    EXPECT_NEAR(spectrum[k].imag(), reference[k].imag(), 1e-9)
        << "n=" << n << " k=" << k;
  }
}

TEST_P(RealPathTest, RealRoundTripReproducesInput) {
  const std::size_t n = GetParam();
  Rng rng(n + 29);
  // Input shorter than the plan exercises the implicit zero padding.
  const std::size_t input_len = n - n / 4;
  std::vector<double> input(input_len);
  for (auto& x : input) x = rng.Gaussian();

  const auto plan = GetPlan(n);
  std::vector<std::complex<double>> spectrum(plan->half_spectrum_size());
  plan->RealForward(input, spectrum);
  std::vector<double> output(n);
  plan->RealInverse(spectrum, output);

  for (std::size_t i = 0; i < n; ++i) {
    const double expected = i < input_len ? input[i] : 0.0;
    EXPECT_NEAR(output[i], expected, 1e-10) << "n=" << n << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RealPathTest,
                         ::testing::Values(2, 4, 8, 32, 256, 1024, 8192));

class PairPathTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PairPathTest, PairRoundTripReproducesBothInputs) {
  const std::size_t n = GetParam();
  Rng rng(n + 37);
  // Different lengths exercise the per-lane zero padding.
  std::vector<double> a(n - n / 4), b(n / 2 + 1);
  for (auto& x : a) x = rng.Gaussian();
  for (auto& x : b) x = rng.Gaussian();

  const auto plan = GetPlan(n);
  std::vector<std::complex<double>> spectrum(n);
  plan->RealForwardPair(a, b, spectrum);
  // One inverse separates the two signals: `a` in the real lane, `b` in the
  // imaginary lane.
  plan->InverseBitrev(spectrum);

  for (std::size_t i = 0; i < n; ++i) {
    const double ea = i < a.size() ? a[i] : 0.0;
    const double eb = i < b.size() ? b[i] : 0.0;
    EXPECT_NEAR(spectrum[i].real(), ea, 1e-10) << "n=" << n << " i=" << i;
    EXPECT_NEAR(spectrum[i].imag(), eb, 1e-10) << "n=" << n << " i=" << i;
  }
}

TEST_P(PairPathTest, PairConvolutionMatchesSingleConvolutions) {
  // The full pair pipeline — pack two queries, one forward, elementwise
  // product with a shared real signal's spectrum, one inverse — must agree
  // with two independent fft::Convolve calls. Agreement is to ~1e-9
  // relative, NOT bit-for-bit: the single-query path transforms each real
  // signal through a half-size complex FFT plus even/odd recombination
  // (and a DIT schedule), while the pair path runs one full-size
  // DIF-ordered transform with the two signals sharing lanes. Same
  // mathematics, different floating-point evaluation order, so the
  // roundings differ in the last bits.
  const std::size_t n = GetParam();
  Rng rng(n + 53);
  const std::size_t signal_len = n / 2;  // conv of two n/2 signals fits in n
  std::vector<double> shared(signal_len), qa(signal_len / 2 + 1),
      qb(signal_len / 3 + 1);
  for (auto& x : shared) x = rng.Gaussian();
  for (auto& x : qa) x = rng.Gaussian();
  for (auto& x : qb) x = rng.Gaussian();

  const auto plan = GetPlan(n);
  std::vector<std::complex<double>> shared_spectrum(n);
  plan->RealForwardPair(shared, {}, shared_spectrum);
  std::vector<std::complex<double>> pair(n), conv(n);
  plan->RealForwardPair(qa, qb, pair);
  plan->MultiplyPairByRealSpectrumInto(shared_spectrum, pair, conv);
  plan->InverseBitrev(conv);

  auto ref_a = Convolve(shared, qa);
  auto ref_b = Convolve(shared, qb);
  ASSERT_TRUE(ref_a.ok());
  ASSERT_TRUE(ref_b.ok());
  for (std::size_t i = 0; i < ref_a->size(); ++i) {
    EXPECT_NEAR(conv[i].real(), (*ref_a)[i],
                1e-9 * (1.0 + std::abs((*ref_a)[i])))
        << "n=" << n << " i=" << i;
  }
  for (std::size_t i = 0; i < ref_b->size(); ++i) {
    EXPECT_NEAR(conv[i].imag(), (*ref_b)[i],
                1e-9 * (1.0 + std::abs((*ref_b)[i])))
        << "n=" << n << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PairPathTest,
                         ::testing::Values(2, 4, 8, 32, 256, 1024, 8192));

TEST(PlanRegistryTest, CachesOnePlanPerSize) {
  const auto a = GetPlan(2048);
  const auto b = GetPlan(2048);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->size(), 2048u);
  EXPECT_NE(a.get(), GetPlan(4096).get());
}

TEST(PlanRegistryTest, HandleOutlivesRegistryLookups) {
  const auto plan = GetPlan(16);
  std::vector<std::complex<double>> data(16, {1.0, 0.0});
  plan->Forward(data);
  EXPECT_NEAR(data[0].real(), 16.0, 1e-12);
}

TEST(PlanRegistryTest, BoundedWithLruEviction) {
  // Exercising eviction at the production capacity would need plans of
  // astronomical sizes (one distinct power of two per slot), so shrink the
  // cap, observe, restore.
  const std::size_t saved = SetPlanRegistryCapacityForTesting(4);

  // Flush whatever earlier tests cached: touching four known sizes leaves
  // the registry holding exactly those four, regardless of prior state.
  (void)GetPlan(1024);
  (void)GetPlan(512);
  (void)GetPlan(256);
  (void)GetPlan(128);

  // Building 16 recursively registers its half-plan chain; together with
  // the explicit GetPlan(2) the LRU is now exactly 16, 8, 4, 2.
  const auto plan2 = GetPlan(2);
  const auto plan16 = GetPlan(16);
  EXPECT_EQ(PlanRegistrySizeForTesting(), 4u);

  // A fifth size evicts the least recently used entry (2). Its ctor hits
  // the cached 16, so only one new entry is inserted.
  const auto plan32 = GetPlan(32);
  EXPECT_LE(PlanRegistrySizeForTesting(), 4u);

  // The evicted size is rebuilt on demand as a distinct object; the old
  // handle keeps working independently of the registry.
  const auto plan2_again = GetPlan(2);
  EXPECT_NE(plan2.get(), plan2_again.get());
  EXPECT_EQ(plan2->size(), 2u);
  EXPECT_EQ(plan2_again->size(), 2u);

  // Re-requesting a retained size is still a cache hit.
  EXPECT_EQ(plan32.get(), GetPlan(32).get());

  SetPlanRegistryCapacityForTesting(saved);
}

TEST(PlanRegistryTest, EvictedParentKeepsChildChainAlive) {
  const std::size_t saved = SetPlanRegistryCapacityForTesting(2);
  const auto plan64 = GetPlan(64);  // chain {2..64} mostly evicted already
  // Flush the registry completely.
  (void)GetPlan(128);
  (void)GetPlan(256);
  // The held handle's real-input path needs its half-size child plans;
  // they must survive via the parent's shared_ptr even though the registry
  // dropped every reference.
  std::vector<double> input(64, 1.0);
  std::vector<std::complex<double>> spectrum(plan64->half_spectrum_size());
  plan64->RealForward(input, spectrum);
  EXPECT_NEAR(spectrum[0].real(), 64.0, 1e-12);
  EXPECT_NEAR(spectrum[1].real(), 0.0, 1e-12);
  SetPlanRegistryCapacityForTesting(saved);
}

}  // namespace
}  // namespace valmod::fft
