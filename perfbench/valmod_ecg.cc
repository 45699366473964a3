// valmod_ecg: one-shot exact VALMOD on a synthetic ECG series — the
// bench_fig2_pruning configuration (8192 points, lengths 64..192, p = 10,
// one thread, static cost model). Nearly all of the work is the STOMP
// initial scan and the lower-bound sweep in core/stats/simd; a fraction of
// a percent of row-lengths is recomputed through mass; service is unused.
//
// Gated end to end: op_p50_ms, one RunValmod call. Row-lengths answered per
// second (work_per_s: the Figure 2 denominator plus the initial rows) and
// the initial fixed-length scan (light_latency) are noted on the metadata
// line.

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/timer.h"
#include "core/valmod.h"
#include "mp/motif.h"
#include "mp/stomp.h"
#include "series/generators.h"

namespace valmod::perfbench {

namespace {

constexpr std::size_t kPoints = 8192;
constexpr std::size_t kMinLength = 64;
constexpr std::size_t kMaxLength = 192;
constexpr std::size_t kP = 10;
// Warm-up: the same range over a prefix, so plan/engine lazy set-up and
// first-touch page faults are paid in setup, not by the first timed rep.
constexpr std::size_t kWarmupPoints = 2048;
// Lengths whose top-1 motif is checked against STOMP.
constexpr std::size_t kCheckedLengths[] = {kMinLength,
                                           (kMinLength + kMaxLength) / 2,
                                           kMaxLength};
constexpr double kCheckRelativeError = 1e-9;

core::ValmodOptions Options() {
  core::ValmodOptions options;
  options.min_length = kMinLength;
  options.max_length = kMaxLength;
  options.p = kP;
  options.num_threads = 1;
  return options;
}

/// The Figure 2 totals of one run, summed over lengths.
struct PruningTotals {
  std::size_t valid = 0;
  std::size_t invalid = 0;
  std::size_t recomputed = 0;
  std::size_t constant = 0;
  std::size_t passes = 0;

  std::size_t rows() const { return valid + invalid + constant; }
  bool operator==(const PruningTotals&) const = default;
};

PruningTotals Totals(const core::ValmodResult& result) {
  PruningTotals t;
  for (const core::LengthStats& s : result.stats) {
    t.valid += s.valid_rows;
    t.invalid += s.invalid_rows;
    t.recomputed += s.recomputed_rows;
    t.constant += s.constant_rows;
    t.passes += s.passes;
  }
  return t;
}

/// Row-lengths the sweep over (kMinLength, kMaxLength] must account for.
std::size_t SweptRows() {
  std::size_t rows = 0;
  for (std::size_t l = kMinLength + 1; l <= kMaxLength; ++l) {
    rows += kPoints - l + 1;
  }
  return rows;
}

struct Rep {
  double wall_s = 0.0;
  double init_s = 0.0;
  double update_s = 0.0;
  PruningTotals totals;
  Counters layer_delta;  // traced reps only
};

/// Top-1 motif distance per checked length from STOMP, the exact oracle.
Result<std::vector<double>> OracleDistances(const series::DataSeries& series) {
  std::vector<double> distances;
  for (const std::size_t length : kCheckedLengths) {
    VALMOD_ASSIGN_OR_RETURN(mp::MatrixProfile profile,
                            mp::ComputeStomp(series, length));
    VALMOD_ASSIGN_OR_RETURN(std::vector<mp::MotifPair> top,
                            mp::ExtractTopKMotifs(profile, 1));
    if (top.empty()) return Status::Internal("STOMP found no motif");
    distances.push_back(top[0].distance);
  }
  return distances;
}

bool MatchesOracle(const core::ValmodResult& result,
                   const std::vector<double>& oracle) {
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    const std::size_t index = kCheckedLengths[i] - kMinLength;
    if (index >= result.per_length.size()) return false;
    const core::LengthMotifs& lm = result.per_length[index];
    if (lm.length != kCheckedLengths[i] || lm.motifs.empty()) return false;
    const double error = std::abs(lm.motifs[0].distance - oracle[i]);
    if (!(error <= kCheckRelativeError * std::abs(oracle[i]))) return false;
  }
  return true;
}

}  // namespace

void RunValmodEcg(const Args& args, Report& report) {
  // ---- setup, repeated; the last one's series is measured ----
  std::optional<series::DataSeries> series;
  std::vector<double> setup_s;
  CpuRotation cpus;  // set-ups and reps each take the next CPU
  for (int i = 0; i < kSetupRepeats; ++i) {
    cpus.PinNext();
    WallTimer timer;
    auto generated = synth::ByName("ecg", kPoints, args.seed);
    if (!generated.ok()) {
      report.CheckFailed("ecg generation: " + generated.status().ToString());
      report.Operation(false);
      return;
    }
    auto prefix = generated->Prefix(kWarmupPoints);
    const bool warm = prefix.ok() && core::RunValmod(*prefix, Options()).ok();
    setup_s.push_back(timer.ElapsedSeconds());
    if (!warm) report.CheckFailed("valmod warm-up run failed");
    series.emplace(std::move(*generated));
  }

  // The oracle is computed before timing; each rep's output is checked
  // right after its timer stops, so no result outlives its rep.
  auto oracle = OracleDistances(*series);
  if (!oracle.ok()) {
    report.CheckFailed("STOMP oracle: " + oracle.status().ToString());
  }
  std::optional<PruningTotals> first_totals;

  // ---- timed phases: untraced reps, then (trace on) traced reps ----
  const auto run_phase = [&](double budget_s, bool traced) {
    std::vector<Rep> reps;
    WallTimer phase;
    double rep_s = 0.0;
    do {
      cpus.PinNext();
      Rep rep;
      const Counters before = traced ? ReadLayerCounters() : Counters{};
      WallTimer timer;
      auto result = core::RunValmod(*series, Options());
      rep.wall_s = timer.ElapsedSeconds();
      rep_s = rep.wall_s;
      if (traced) {
        rep.layer_delta =
            CounterDelta(ReadLayerCounters(), before).value_or(Counters{});
      }
      bool ok = result.ok() && oracle.ok() && MatchesOracle(*result, *oracle);
      if (result.ok()) {
        rep.init_s = result->init_seconds;
        rep.update_s = result->update_seconds;
        rep.totals = Totals(*result);
        if (!first_totals) first_totals = rep.totals;
        // Every rep runs the same deterministic algorithm on the same
        // input, so the pruning counts must repeat exactly; and every row
        // of every swept length is exactly one of valid/invalid/constant.
        if (rep.totals != *first_totals) {
          report.CheckFailed("pruning counts differ across reps");
          ok = false;
        }
        if (rep.totals.rows() != SweptRows()) ok = false;
      } else {
        std::fprintf(stderr, "valmod run failed: %s\n",
                     result.status().ToString().c_str());
      }
      report.Operation(ok);
      reps.push_back(std::move(rep));
    } while (phase.ElapsedSeconds() + rep_s <= budget_s);
    return reps;
  };
  const std::vector<Rep> untraced =
      run_phase(args.trace ? args.seconds / 2 : args.seconds, false);
  std::vector<Rep> traced;
  if (args.trace) traced = run_phase(args.seconds / 2, true);

  std::vector<double> wall_ms, init_ms;
  for (const Rep& rep : untraced) {
    wall_ms.push_back(rep.wall_s * 1e3);
    init_ms.push_back(rep.init_s * 1e3);
  }
  const double row_lengths =
      static_cast<double>(SweptRows() + (kPoints - kMinLength + 1));

  json::Value::Array rep_ms;
  for (const double ms : wall_ms) rep_ms.emplace_back(ms);
  report.Note("rep_ms", json::Value(std::move(rep_ms)));

  if (!args.trace) {
    report.Metric("setup_s", Median(setup_s));
    report.Note("work_per_s",
                json::Value(Ratio(row_lengths, Median(wall_ms) / 1e3)));
    report.Metric("op_p50_ms", report.Latencies("op", wall_ms));
    report.Latencies("light", init_ms);
    return;
  }

  // ---- per-layer metrics from the traced reps ----
  std::vector<double> traced_ms, init_s, update_s;
  for (const Rep& rep : traced) {
    traced_ms.push_back(rep.wall_s * 1e3);
    init_s.push_back(rep.init_s);
    update_s.push_back(rep.update_s);
  }
  report.Metric("core.init_s", Median(init_s));
  report.Metric("core.update_s", Median(update_s));
  if (first_totals) {
    const PruningTotals& t = *first_totals;
    report.Metric("core.rows_valid", static_cast<double>(t.valid));
    report.Metric("core.rows_invalid", static_cast<double>(t.invalid));
    report.Metric("core.rows_recomputed", static_cast<double>(t.recomputed));
    report.Metric("core.rows_constant", static_cast<double>(t.constant));
    report.Metric("core.passes", static_cast<double>(t.passes));
    report.Metric("core.certified_ratio",
                  Ratio(static_cast<double>(t.valid),
                        static_cast<double>(t.valid + t.invalid)));
    report.Metric("core.recompute_ratio",
                  Ratio(static_cast<double>(t.recomputed),
                        static_cast<double>(t.rows())));
  }
  // Counters are identical across reps of one deterministic run; report
  // the last rep's delta.
  if (!traced.empty()) ReportLayerCounters(traced.back().layer_delta, report);
  report.Metric("service.trace_overhead_pct",
                100.0 * (Median(traced_ms) / Median(wall_ms) - 1.0));
}

}  // namespace valmod::perfbench
