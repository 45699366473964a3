#include "fft/plan.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <list>
#include <mutex>
#include <numbers>
#include <unordered_map>
#include <utility>

#include "simd/dispatch.h"

namespace valmod::fft {

FftPlan::FftPlan(std::size_t n) : n_(n) {
  assert(IsPowerOfTwo(n));

  bit_reverse_.resize(n_);
  std::size_t j = 0;
  bit_reverse_[0] = 0;
  for (std::size_t i = 1; i < n_; ++i) {
    std::size_t bit = n_ >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bit_reverse_[i] = static_cast<std::uint32_t>(j);
  }

  twiddles_.resize(n_ / 2);
  for (std::size_t k = 0; k < n_ / 2; ++k) {
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>(k) /
        static_cast<double>(n_);
    twiddles_[k] = {std::cos(angle), std::sin(angle)};
  }

  if (n_ >= 4) half_ = GetPlan(n_ / 2);
}

// The butterfly kernels (span-2 pass, fused radix-2^2 DIT/DIF passes — see
// src/simd/kernels_scalar_inl.h for the loop bodies and derivation
// comments) are runtime-dispatched: simd::ActiveKernels() resolves to the
// best vector target the CPU supports, and every target is bit-identical
// to the scalar oracle. The schedule below stays here; only the dense
// inner sweeps moved.

void FftPlan::DitPasses(double* d, bool forward) const {
  const simd::Kernels& kernels = simd::ActiveKernels();
  const double sign = forward ? 1.0 : -1.0;
  const double* tw = reinterpret_cast<const double*>(twiddles_.data());
  std::size_t len = 2;
  std::uint64_t fused = 0;
  if (std::countr_zero(n_) % 2 == 1) {
    kernels.radix2_pass(d, n_);
    simd::NoteKernelCalls(simd::KernelKind::kRadix2Pass, 1);
    len = 4;
  }
  for (; len <= n_ / 2; len <<= 2) {
    kernels.fused_radix4_dit(d, n_, len, tw, sign);
    ++fused;
  }
  simd::NoteKernelCalls(simd::KernelKind::kFusedRadix4Dit, fused);
}

void FftPlan::TransformImpl(std::span<std::complex<double>> data,
                            bool forward) const {
  assert(data.size() == n_);
  if (n_ == 1) return;

  for (std::size_t i = 1; i < n_; ++i) {
    const std::size_t j = bit_reverse_[i];
    if (i < j) std::swap(data[i], data[j]);
  }

  // std::complex<double> has array-compatible layout, so the butterfly
  // kernels may view the buffer as interleaved doubles.
  double* d = reinterpret_cast<double*>(data.data());
  DitPasses(d, forward);

  if (!forward) {
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (std::size_t i = 0; i < 2 * n_; ++i) d[i] *= inv_n;
  }
}

void FftPlan::ForwardBitrev(std::span<std::complex<double>> data) const {
  assert(data.size() == n_);
  if (n_ == 1) return;
  double* d = reinterpret_cast<double*>(data.data());
  // Decimation in frequency: spans shrink from n to 2, output lands in
  // bit-reversed order with no permutation pass. An odd log2(n) leaves the
  // (twiddle-free) span-2 stage for the end.
  const simd::Kernels& kernels = simd::ActiveKernels();
  const double* tw = reinterpret_cast<const double*>(twiddles_.data());
  std::uint64_t fused = 0;
  for (std::size_t len = n_ / 2; len >= 2; len >>= 2) {
    kernels.fused_radix4_dif(d, n_, len, tw, /*sign=*/1.0);
    ++fused;
  }
  simd::NoteKernelCalls(simd::KernelKind::kFusedRadix4Dif, fused);
  if (std::countr_zero(n_) % 2 == 1) {
    kernels.radix2_pass(d, n_);
    simd::NoteKernelCalls(simd::KernelKind::kRadix2Pass, 1);
  }
}

void FftPlan::InverseBitrev(std::span<std::complex<double>> data) const {
  assert(data.size() == n_);
  if (n_ == 1) return;
  double* d = reinterpret_cast<double*>(data.data());
  DitPasses(d, /*forward=*/false);
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < 2 * n_; ++i) d[i] *= inv_n;
}

void FftPlan::Forward(std::span<std::complex<double>> data) const {
  TransformImpl(data, /*forward=*/true);
}

void FftPlan::Inverse(std::span<std::complex<double>> data) const {
  TransformImpl(data, /*forward=*/false);
}

void FftPlan::RealForward(std::span<const double> input,
                          std::span<std::complex<double>> spectrum) const {
  assert(n_ >= 2);
  assert(input.size() <= n_);
  assert(spectrum.size() == half_spectrum_size());

  if (n_ == 2) {
    const double x0 = input.size() > 0 ? input[0] : 0.0;
    const double x1 = input.size() > 1 ? input[1] : 0.0;
    spectrum[0] = {x0 + x1, 0.0};
    spectrum[1] = {x0 - x1, 0.0};
    return;
  }

  const std::size_t m = n_ / 2;
  // Pack pairs of reals into the first m complex slots (slot m stays free
  // for the Nyquist bin) and run the half-size complex transform in place.
  auto packed = spectrum.first(m);
  for (std::size_t k = 0; k < m; ++k) {
    const double re = 2 * k < input.size() ? input[2 * k] : 0.0;
    const double im = 2 * k + 1 < input.size() ? input[2 * k + 1] : 0.0;
    packed[k] = {re, im};
  }
  half_->Forward(packed);

  // Split Z into the spectra of the even/odd subsequences and recombine:
  //   E[k] = (Z[k] + conj(Z[m-k])) / 2,  O[k] = (Z[k] - conj(Z[m-k])) / 2i,
  //   X[k] = E[k] + w[k] O[k]            with w[k] = exp(-2*pi*i*k / n).
  const std::complex<double> z0 = spectrum[0];
  spectrum[0] = {z0.real() + z0.imag(), 0.0};
  spectrum[m] = {z0.real() - z0.imag(), 0.0};
  for (std::size_t k = 1; k < m - k; ++k) {
    const std::size_t j = m - k;
    const std::complex<double> zk = spectrum[k];
    const std::complex<double> zj = spectrum[j];
    const std::complex<double> ek = 0.5 * (zk + std::conj(zj));
    const std::complex<double> ok =
        (zk - std::conj(zj)) * std::complex<double>(0.0, -0.5);
    const std::complex<double> ej = 0.5 * (zj + std::conj(zk));
    const std::complex<double> oj =
        (zj - std::conj(zk)) * std::complex<double>(0.0, -0.5);
    spectrum[k] = ek + twiddles_[k] * ok;
    spectrum[j] = ej + twiddles_[j] * oj;
  }
  // k == m/2 pairs with itself: X reduces to conj(Z).
  spectrum[m / 2] = std::conj(spectrum[m / 2]);
}

void FftPlan::RealInverse(std::span<std::complex<double>> spectrum,
                          std::span<double> output) const {
  assert(n_ >= 2);
  assert(spectrum.size() == half_spectrum_size());
  assert(output.size() == n_);

  if (n_ == 2) {
    output[0] = 0.5 * (spectrum[0].real() + spectrum[1].real());
    output[1] = 0.5 * (spectrum[0].real() - spectrum[1].real());
    return;
  }

  const std::size_t m = n_ / 2;
  // Exact inverse of the RealForward recombination: recover the half-size
  // spectrum Z[k] = E[k] + i O[k] from X, with
  //   E[k] = (X[k] + conj(X[m-k])) / 2,
  //   O[k] = conj(w[k]) (X[k] - conj(X[m-k])) / 2.
  const std::complex<double> x0 = spectrum[0];
  const std::complex<double> xm = spectrum[m];
  {
    const std::complex<double> e0 = 0.5 * (x0 + std::conj(xm));
    const std::complex<double> o0 = 0.5 * (x0 - std::conj(xm));
    spectrum[0] = e0 + std::complex<double>(0.0, 1.0) * o0;
  }
  for (std::size_t k = 1; k < m - k; ++k) {
    const std::size_t j = m - k;
    const std::complex<double> xk = spectrum[k];
    const std::complex<double> xj = spectrum[j];
    const std::complex<double> ek = 0.5 * (xk + std::conj(xj));
    const std::complex<double> ok =
        0.5 * (xk - std::conj(xj)) * std::conj(twiddles_[k]);
    const std::complex<double> ej = 0.5 * (xj + std::conj(xk));
    const std::complex<double> oj =
        0.5 * (xj - std::conj(xk)) * std::conj(twiddles_[j]);
    spectrum[k] = ek + std::complex<double>(0.0, 1.0) * ok;
    spectrum[j] = ej + std::complex<double>(0.0, 1.0) * oj;
  }
  spectrum[m / 2] = std::conj(spectrum[m / 2]);

  auto packed = spectrum.first(m);
  half_->Inverse(packed);
  for (std::size_t k = 0; k < m; ++k) {
    output[2 * k] = packed[k].real();
    output[2 * k + 1] = packed[k].imag();
  }
}

void FftPlan::RealForwardPair(std::span<const double> a,
                              std::span<const double> b,
                              std::span<std::complex<double>> spectrum) const {
  assert(a.size() <= n_);
  assert(b.size() <= n_);
  assert(spectrum.size() == n_);

  const std::size_t filled = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < filled; ++i) {
    spectrum[i] = {i < a.size() ? a[i] : 0.0, i < b.size() ? b[i] : 0.0};
  }
  std::fill(spectrum.begin() + filled, spectrum.end(),
            std::complex<double>{0.0, 0.0});
  ForwardBitrev(spectrum);
}

void FftPlan::MultiplyPairByRealSpectrumInto(
    std::span<const std::complex<double>> real_spectrum,
    std::span<const std::complex<double>> pair_spectrum,
    std::span<std::complex<double>> product) const {
  assert(real_spectrum.size() == n_);
  assert(pair_spectrum.size() == n_);
  assert(product.size() == n_);

  // std::complex<double> has array-compatible layout, so the dispatched
  // kernel works on the interleaved doubles directly.
  simd::ActiveKernels().complex_multiply(
      reinterpret_cast<const double*>(pair_spectrum.data()),
      reinterpret_cast<const double*>(real_spectrum.data()),
      reinterpret_cast<double*>(product.data()), n_);
  simd::NoteKernelCalls(simd::KernelKind::kComplexMultiply, 1);
}

namespace {

constexpr std::size_t kDefaultPlanRegistryCapacity = 32;

std::atomic<std::uint64_t> g_plan_hits{0};
std::atomic<std::uint64_t> g_plan_misses{0};
std::atomic<std::uint64_t> g_plan_evictions{0};

struct PlanRegistry {
  std::mutex mutex;
  std::size_t capacity = kDefaultPlanRegistryCapacity;
  /// Most recently used at the front. A std::list keeps hit handling to one
  /// splice and eviction to one pop, with stable iterators for the index.
  std::list<std::pair<std::size_t, std::shared_ptr<const FftPlan>>> lru;
  std::unordered_map<std::size_t, decltype(lru)::iterator> index;

  /// Caller must hold `mutex`.
  void TrimLocked() {
    while (lru.size() > capacity) {
      index.erase(lru.back().first);
      lru.pop_back();
      g_plan_evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

PlanRegistry& Registry() {
  static PlanRegistry* registry = new PlanRegistry();
  return *registry;
}

}  // namespace

std::size_t PlanRegistryCapacity() {
  PlanRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.capacity;
}

std::size_t PlanRegistrySizeForTesting() {
  PlanRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.lru.size();
}

std::size_t SetPlanRegistryCapacityForTesting(std::size_t capacity) {
  assert(capacity >= 1);
  PlanRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  const std::size_t previous = registry.capacity;
  registry.capacity = capacity;
  registry.TrimLocked();
  return previous;
}

std::shared_ptr<const FftPlan> GetPlan(std::size_t n) {
  assert(IsPowerOfTwo(n));
  PlanRegistry& registry = Registry();
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    auto it = registry.index.find(n);
    if (it != registry.index.end()) {
      registry.lru.splice(registry.lru.begin(), registry.lru, it->second);
      g_plan_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second->second;
    }
  }
  // Built outside the lock: construction recurses into GetPlan(n/2) for the
  // real-input path, and table construction for large sizes is slow enough
  // that serializing it would stall concurrent callers. A racing duplicate
  // build is harmless; the first insert wins.
  auto plan = std::make_shared<const FftPlan>(n);
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.index.find(n);
  if (it != registry.index.end()) {
    registry.lru.splice(registry.lru.begin(), registry.lru, it->second);
    g_plan_hits.fetch_add(1, std::memory_order_relaxed);
    return it->second->second;
  }
  g_plan_misses.fetch_add(1, std::memory_order_relaxed);
  registry.lru.emplace_front(n, std::move(plan));
  registry.index.emplace(n, registry.lru.begin());
  std::shared_ptr<const FftPlan> handle = registry.lru.front().second;
  registry.TrimLocked();
  return handle;
}

PlanRegistryCounters PlanRegistryCountersSnapshot() {
  PlanRegistryCounters out;
  out.hits = g_plan_hits.load(std::memory_order_relaxed);
  out.misses = g_plan_misses.load(std::memory_order_relaxed);
  out.evictions = g_plan_evictions.load(std::memory_order_relaxed);
  return out;
}

}  // namespace valmod::fft
