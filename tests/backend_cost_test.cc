// The calibrated backend-aware cost model (mass/backend.h): the chooser
// must pick the backend that actually measures cheapest, and runtime
// calibration may move *choices* but never the numerics a given backend
// produces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "fft/fft.h"
#include "mass/backend.h"
#include "mass/engine.h"
#include "mass/mass.h"
#include "series/generators.h"

namespace valmod::mass {
namespace {

/// Restores the deterministic static fit after tests that install a
/// calibrated model, so test order never leaks a machine-dependent model
/// into the other suites of this binary.
class BackendCostTest : public ::testing::Test {
 protected:
  void TearDown() override { SetBackendCostModel(BackendCostModel{}); }
};

struct GridCase {
  std::size_t series_n;
  std::size_t length;
  bool batched;
  ConvolutionBackend expected;
};

// Expected winners are the *measured* cheapest backends from the
// boundary_sweep and single_chunk rows of BENCH_engine.json
// (bench_mass_engine, batched single-threaded per-row timings; see the
// sweep summary in README / ROADMAP): overlap-save wins the whole
// short-length grid, direct survives only tiny problems, and a query whose
// chunk clamps to the full transform runs as one overlap-save chunk in a
// batch but keeps the full-size single-query FFT on its own.
TEST_F(BackendCostTest, ChoiceMatchesMeasuredWinnerOnBenchGrid) {
  const GridCase cases[] = {
      // Measured overlap-save speedups over direct 1.15x-4.5x, see
      // boundary_sweep.
      {std::size_t{1} << 12, 64, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 12, 128, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 12, 256, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 12, 512, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 13, 64, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 13, 128, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 13, 256, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 13, 512, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 14, 64, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 14, 128, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 14, 256, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 14, 512, true, ConvolutionBackend::kOverlapSave},
      // Tiny problems stay direct (measured 7.6us vs 10.0us per row).
      {600, 16, true, ConvolutionBackend::kDirect},
      {600, 16, false, ConvolutionBackend::kDirect},
      // Query a sizable fraction of the series: the chunk clamps to the
      // full transform and holds the whole series.
      {2048, 1024, true, ConvolutionBackend::kOverlapSave},
      {2048, 1024, false, ConvolutionBackend::kFftSingle},
      {3000, 700, true, ConvolutionBackend::kOverlapSave},
      {3000, 700, false, ConvolutionBackend::kFftSingle},
      // Long-series configurations from the PR 3 sweep stay overlap-save.
      {std::size_t{1} << 15, 1024, false, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 17, 1024, true, ConvolutionBackend::kOverlapSave},
  };
  for (const GridCase& c : cases) {
    const std::size_t count = c.series_n - c.length + 1;
    EXPECT_EQ(ChooseConvolutionBackend(c.series_n, c.length, count,
                                       c.batched),
              c.expected)
        << "n=" << c.series_n << " length=" << c.length
        << " batched=" << c.batched;
  }
}

// The resolver must always land on a concrete backend that matches the
// batching mode: a batch runs rows on direct dots or pair-packed through
// overlap-save, so the full-size single-query FFT is a single-row choice.
TEST_F(BackendCostTest, ResolvesToConcreteBackendEverywhere) {
  for (std::size_t n : {1u, 2u, 64u, 600u, 2048u, 4096u, 100000u}) {
    for (std::size_t length : {1u, 2u, 16u, 100u, 512u, 1024u}) {
      if (length > n) continue;
      const std::size_t count = n - length + 1;
      for (bool batched : {false, true}) {
        const ConvolutionBackend b =
            ChooseConvolutionBackend(n, length, count, batched);
        EXPECT_NE(b, ConvolutionBackend::kAuto);
        if (batched) {
          EXPECT_TRUE(b == ConvolutionBackend::kDirect ||
                      b == ConvolutionBackend::kOverlapSave)
              << "n=" << n << " length=" << length << " got "
              << ConvolutionBackendName(b);
        }
      }
    }
  }
}

// The clamped chunk: non-clamped sizes keep fft::OverlapSaveFftSize, and a
// clamped chunk never exceeds the padded full transform (floor 64) and
// always holds the whole series.
TEST_F(BackendCostTest, OverlapSaveChunkClampsToFullTransform) {
  EXPECT_EQ(OverlapSaveChunkSize(std::size_t{1} << 17, 1024), 4096u);
  EXPECT_EQ(OverlapSaveChunkSize(8192, 128), 512u);
  EXPECT_EQ(OverlapSaveChunkSize(2048, 1024), 4096u);
  EXPECT_EQ(OverlapSaveChunkSize(1500, 300), 2048u);
  EXPECT_EQ(OverlapSaveChunkSize(63, 40), 128u);
  EXPECT_EQ(OverlapSaveChunkSize(1, 1), 64u);
  for (std::size_t n : {1u, 63u, 600u, 1500u, 3000u, 100000u}) {
    for (std::size_t length : {1u, 16u, 40u, 300u, 700u, 1024u}) {
      if (length > n) continue;
      const std::size_t chunk = OverlapSaveChunkSize(n, length);
      const std::size_t full = fft::NextPowerOfTwo(n + length - 1);
      if (chunk < fft::OverlapSaveFftSize(length)) {
        EXPECT_EQ(chunk, std::max<std::size_t>(64, full))
            << "n=" << n << " length=" << length;
        EXPECT_LE(n, chunk) << "n=" << n << " length=" << length;
      } else {
        EXPECT_EQ(chunk, fft::OverlapSaveFftSize(length));
      }
    }
  }
}

// Cost functions: sanity of the shapes the chooser compares. Direct scales
// with count * length; the overlap-save pipeline is cheaper per row inside
// a pair-packed batch and prices one chunk when the series fits in it.
TEST_F(BackendCostTest, CostFunctionShapes) {
  const BackendCostModel model;  // static fit
  EXPECT_DOUBLE_EQ(DirectSlidingDotsCost(model, 128, 1000),
                   model.direct * 128.0 * 1000.0);
  EXPECT_LT(OverlapSaveSlidingDotsCost(model, 8192, 128, 8065, /*pair=*/true),
            OverlapSaveSlidingDotsCost(model, 8192, 128, 8065,
                                       /*pair=*/false));
  // Longer series, same length: overlap-save cost grows ~linearly (more
  // chunks), full-FFT cost jumps with the padded transform size.
  EXPECT_LT(OverlapSaveSlidingDotsCost(model, 8192, 128, 8065, true),
            OverlapSaveSlidingDotsCost(model, 16384, 128, 16257, true));
  EXPECT_LT(FftSlidingDotsCost(model, 8192, 128),
            FftSlidingDotsCost(model, 16384, 128));
  // A series that fits in one 2048-point chunk: one filter transform, one
  // product and one inverse, shared by the pair.
  const double units = 2048.0 * 11.0;
  EXPECT_DOUBLE_EQ(
      OverlapSaveSlidingDotsCost(model, 1500, 300, 1201, /*pair=*/true),
      (model.overlap_save * units * 2.0 + model.overlap_save_chunk * 2048.0) /
          2.0);
}

// Calibration must be choice-only: whatever weights the microbench fits,
// forcing a concrete backend before and after produces bit-identical rows.
// (kAuto *may* switch backends after calibration — that is its purpose.)
TEST_F(BackendCostTest, CalibrationNeverChangesBackendNumerics) {
  auto series = synth::ByName("ecg", 4096, 57);
  ASSERT_TRUE(series.ok());
  MassEngine engine(*series);
  const std::size_t length = 128;
  const std::vector<std::size_t> rows = {0, 129, 700, 1501, 2000, 3000};

  const ConvolutionBackend backends[] = {
      ConvolutionBackend::kDirect, ConvolutionBackend::kFftSingle,
      ConvolutionBackend::kOverlapSave};
  std::vector<std::vector<RowProfile>> before;
  for (ConvolutionBackend b : backends) {
    auto r = engine.ComputeRowProfiles(rows, length, 1, b);
    ASSERT_TRUE(r.ok());
    before.push_back(std::move(*r));
  }

  const BackendCostModel fitted = CalibrateBackendCostModel();
  // The fit must be sane: positive weights, with the butterfly families
  // costlier per unit than the dense direct FMA loop.
  EXPECT_GT(fitted.fft_single, 0.0);
  EXPECT_GT(fitted.overlap_save, 0.0);
  EXPECT_GE(fitted.overlap_save_chunk, 0.0);
  // Calibrate installs itself as the active model.
  EXPECT_EQ(ActiveBackendCostModel().fft_single, fitted.fft_single);

  for (std::size_t bi = 0; bi < std::size(backends); ++bi) {
    auto after = engine.ComputeRowProfiles(rows, length, 1, backends[bi]);
    ASSERT_TRUE(after.ok());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (std::size_t j = 0; j < (*after)[i].dots.size(); ++j) {
        ASSERT_EQ((*after)[i].dots[j], before[bi][i].dots[j])
            << ConvolutionBackendName(backends[bi]) << " row " << rows[i]
            << " j=" << j;
        ASSERT_EQ((*after)[i].distances[j], before[bi][i].distances[j])
            << ConvolutionBackendName(backends[bi]) << " row " << rows[i]
            << " j=" << j;
      }
    }
  }
}

// Installing a custom model steers kAuto deterministically: a model that
// prices transforms at (effectively) infinity forces direct everywhere, one
// that prices them at zero never picks direct for multi-row work.
TEST_F(BackendCostTest, InstalledModelSteersChoice) {
  BackendCostModel expensive_fft;
  expensive_fft.fft_single = 1e18;
  expensive_fft.overlap_save = 1e18;
  expensive_fft.overlap_save_chunk = 1e18;
  SetBackendCostModel(expensive_fft);
  EXPECT_EQ(ChooseConvolutionBackend(std::size_t{1} << 17, 1024,
                                     (std::size_t{1} << 17) - 1023, true),
            ConvolutionBackend::kDirect);

  BackendCostModel free_fft;
  free_fft.fft_single = 0.0;
  free_fft.overlap_save = 0.0;
  free_fft.overlap_save_chunk = 0.0;
  SetBackendCostModel(free_fft);
  EXPECT_NE(ChooseConvolutionBackend(600, 16, 585, true),
            ConvolutionBackend::kDirect);
}

}  // namespace
}  // namespace valmod::mass
