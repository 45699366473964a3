#ifndef VALMOD_MASS_BACKEND_H_
#define VALMOD_MASS_BACKEND_H_

#include <cstddef>
#include <cstdint>

#include "simd/dispatch.h"

namespace valmod::mass {

/// Version stamp of the numerical results the library produces under
/// automatic backend selection. Backends are numerically equivalent to
/// ~1e-9 relative but not bit-identical, so *which* backend the cost model
/// picks determines the exact ulps of every downstream motif distance.
/// There is exactly one selection policy (ChooseConvolutionBackend below).
/// Whenever it — or the numerics of a backend — changes, this constant is
/// bumped and the golden outputs under tests/goldens/ are regenerated; the
/// output of an earlier version is reproduced by building that revision
/// from git history. Every motif, valmap and query response carries this
/// stamp.
inline constexpr int kResultsVersion = 2;

/// How a MASS engine turns queries into sliding dot products. The backends
/// are numerically equivalent (every one computes the same dot products to
/// ~1e-9 relative) but differ in evaluation order, so results are not
/// bit-identical across backends; within one backend, results depend only on
/// the inputs and — for the batched entry point — the row order, never on
/// the thread count.
enum class ConvolutionBackend {
  /// Cost-model selection (see ChooseConvolutionBackend). The default
  /// everywhere; forcing a specific backend exists for tests and benches.
  kAuto,
  /// O(count * length) direct multiply-adds. Wins for short windows.
  kDirect,
  /// One full-size real FFT per query against the cached padded-series
  /// spectrum (the half-spectrum path). Bit-identical to the historical
  /// always-FFT engine path.
  kFftSingle,
  /// Overlap-save: chunked FFTs of ~4x the query length against per-chunk
  /// series spectra cached in the engine. Cuts the per-row flop count from
  /// O(n log n) to O(n log m) and keeps the transform working set cache
  /// resident; batched calls pair-pack the chunk pipeline (two rows ride
  /// the real/imaginary lanes of one transform). When the whole series fits
  /// in one chunk (see OverlapSaveChunkSize) the pipeline is a single
  /// chunk-size pair-packed circular convolution.
  kOverlapSave,
};

/// Human-readable backend name for logs / bench JSON.
const char* ConvolutionBackendName(ConvolutionBackend backend);

/// The overlap-save chunk FFT size for `length`-point queries against a
/// `series_size`-point series: fft::OverlapSaveFftSize(length), clamped to
/// the padded full transform (at least 64 points) so a query that is a
/// sizable fraction of the series never transforms a chunk larger than the
/// whole convolution. Whenever `series_size <= chunk` the engine reads every
/// output from chunk 0, whose alias-free span `chunk - length + 1` covers
/// all `series_size - length + 1` windows.
std::size_t OverlapSaveChunkSize(std::size_t series_size, std::size_t length);

/// Per-backend cost weights, in units of one direct multiply-add (so
/// `direct` is 1.0 by construction). A backend's predicted per-row cost is
/// its kernel's dominant operation count scaled by these weights — see the
/// cost functions below for the exact formulas. The static defaults were
/// fitted offline from the boundary sweep in bench_mass_engine (the
/// `boundary_sweep` rows of BENCH_engine.json hold the measurements the fit
/// is audited against); `CalibrateBackendCostModel()` refits them on the
/// running machine.
struct BackendCostModel {
  /// Cost of one direct sliding-dot multiply-add. The unit of the model.
  double direct = 1.0;
  /// Cost per butterfly unit (`F * log2(F)`, F the padded full transform
  /// size) of a single-query row: one real forward + product + real inverse.
  /// Butterfly weights land well above 1 because the direct path is a dense
  /// auto-vectorized FMA loop while a butterfly pass is strided and
  /// latency-bound.
  double fft_single = 5.5;
  /// Cost per butterfly unit (`C * log2(C)`, C the overlap-save chunk size)
  /// per chunk-size transform of the overlap-save pipeline.
  double overlap_save = 4.0;
  /// Cost per chunk point of the per-chunk pointwise product + unload sweep
  /// (the O(C) work between the cached chunk spectrum and the output dots).
  double overlap_save_chunk = 2.0;
  /// The SIMD dispatch target the weights apply to. Calibrated weights are
  /// keyed by the target that was active when they were measured: the
  /// relative price of a butterfly unit versus a direct multiply-add shifts
  /// with the vector width, so weights fitted under avx512 must not steer
  /// the chooser after a switch to scalar (VALMOD_SIMD / --simd). When
  /// ActiveBackendCostModel() detects a target change it resets to the
  /// static fit and bumps the model generation (invalidating memoized kAuto
  /// results). For the static fit this field reports the currently active
  /// target.
  simd::Target simd_target = simd::Target::kScalar;
};

/// Predicted cost of one row of sliding dot products, per backend.
/// `count = series_size - length + 1` rows of `length`-point dots. The
/// overlap-save formula runs on the OverlapSaveChunkSize chunk, amortizes
/// the filter transform and the per-chunk inverse over `hop = C/2` outputs
/// per chunk (one chunk in total when the series fits in it), and assumes
/// the chunk spectra themselves are cached by the engine (they are built
/// once per (series, chunk size) and reused by every row); `pair` prices a
/// row inside a pair-packed batch (two rows per pipeline pass).
double DirectSlidingDotsCost(const BackendCostModel& model, std::size_t length,
                             std::size_t count);
double FftSlidingDotsCost(const BackendCostModel& model,
                          std::size_t series_size, std::size_t length);
double OverlapSaveSlidingDotsCost(const BackendCostModel& model,
                                  std::size_t series_size, std::size_t length,
                                  std::size_t count, bool pair);

/// The process-wide model used by `ChooseConvolutionBackend`. Defaults to
/// the (deterministic) static fit above; `SetBackendCostModel` installs a
/// replacement — typically the result of `CalibrateBackendCostModel()`.
/// Thread-safe.
BackendCostModel ActiveBackendCostModel();
void SetBackendCostModel(const BackendCostModel& model);

/// Monotone generation counter of the active cost model: bumped by every
/// SetBackendCostModel call — and therefore by CalibrateBackendCostModel,
/// which installs its fit. Calibration changes which backend kAuto picks,
/// which changes result ulps, so anything that memoizes kAuto results
/// (the service result cache) folds this generation into its keys; a
/// recalibration then invalidates the memoized responses instead of
/// serving output computed under the retired model.
std::uint64_t BackendCostModelGeneration();

/// One-shot runtime calibration (~100 ms): microbenchmarks the direct,
/// full-size single-query FFT, and overlap-save kernels on this machine, fits the
/// per-backend weights, installs the fitted model as the active one, and
/// returns it. Calibration changes only which backend `kAuto` *chooses* —
/// never the numerics a given backend produces — so it is safe for
/// throughput but makes the choice machine-dependent; CI and the golden
/// tests stay on the static fit for determinism.
BackendCostModel CalibrateBackendCostModel();

/// Number of CalibrateBackendCostModel runs this process has completed
/// (telemetry for the `metrics` verb; distinct from the generation counter,
/// which also counts SetBackendCostModel calls and stale-target resets).
std::uint64_t CalibrationRefitCount();

/// Resolves kAuto for one row profile: picks the backend with the smallest
/// predicted cost under `model` (or the active model). With `batched` set
/// the candidates are direct and pair-packed overlap-save — the two ways the
/// batched entry point executes rows; otherwise direct, the full-size
/// single-query FFT and single-lane overlap-save compete. Ties go to the
/// simpler kernel. Never returns kAuto.
ConvolutionBackend ChooseConvolutionBackend(std::size_t series_size,
                                            std::size_t length,
                                            std::size_t count,
                                            bool batched,
                                            const BackendCostModel& model);
ConvolutionBackend ChooseConvolutionBackend(std::size_t series_size,
                                            std::size_t length,
                                            std::size_t count,
                                            bool batched = false);

}  // namespace valmod::mass

#endif  // VALMOD_MASS_BACKEND_H_
