// stream_ingest: one closed-loop RetryClient feeds a seeded noisy stream
// through the `append` verb into a windowed streaming dataset
// (streaming_length 32, window 1024) behind the epoll front end. Batches
// are small and the run covers many times the window, so eviction and
// repair run in steady state; every 16th request is a `motifs` read served
// from the maintained profile, so reads run beside writes.
//
// Gated end to end: op_p50_ms, an append. Points ingested per second
// (work_per_s) and reads (light_latency) are noted on the metadata line.

#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/timer.h"
#include "mp/stomp.h"
#include "mp/streaming.h"
#include "service/client.h"

namespace valmod::perfbench {

namespace {

using json::Value;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kLength = 32;
constexpr std::size_t kWindow = 1024;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kReadEvery = 16;
constexpr std::size_t kReadMotifs = 3;
// Set-up fills the window twice over, so the timed loop starts with
// eviction and repair already in steady state.
constexpr std::size_t kWarmupPoints = 2 * kWindow;
constexpr std::size_t kWarmupBatch = 128;
// The final maintained top-k is compared with batch STOMP on the retained
// window, to the tolerance the repository's windowed parity test uses.
constexpr std::size_t kCheckedMotifs = 5;
constexpr double kCheckTolerance = 2e-5;

/// The seeded input: two periodic components over a slowly wandering
/// level, plus noise, so motifs recur but rarely repeat exactly.
class NoisyStream {
 public:
  explicit NoisyStream(std::uint64_t seed) : rng_(seed * 7919 + 17) {}

  std::vector<double> Next(std::size_t count) {
    std::vector<double> values(count);
    for (double& v : values) {
      const double t = static_cast<double>(t_++);
      level_ += 0.01 * rng_.Gaussian();
      v = std::sin(t * 2.0 * M_PI / 40.0) +
          0.5 * std::sin(t * 2.0 * M_PI / 147.0) + level_ +
          0.25 * rng_.Gaussian();
    }
    return values;
  }

 private:
  Rng rng_;
  std::size_t t_ = 0;
  double level_ = 0.0;
};

std::string AppendLine(const std::vector<double>& values, bool trace) {
  std::string line = "{\"verb\":\"append\",\"dataset\":\"stream\",";
  if (trace) line += "\"trace\":true,";
  line += "\"params\":{\"values\":" +
          JoinArray(RenderValues(values), 0, values.size()) + "}}";
  return line;
}

std::string ReadLine(std::size_t k, bool trace) {
  std::string line = "{\"verb\":\"motifs\",\"dataset\":\"stream\",";
  if (trace) line += "\"trace\":true,";
  line += "\"params\":{\"k\":" + std::to_string(k) + "}}";
  return line;
}

/// A served streaming dataset, its client connection, and the stream
/// position: the client keeps the raw values the window retains, for the
/// final oracle check.
struct Fixture {
  std::unique_ptr<ServedService> served;
  std::unique_ptr<service::TcpTransport> transport;
  std::unique_ptr<service::RetryClient> client;
  std::unique_ptr<NoisyStream> stream;
  std::deque<double> retained;
  std::size_t appended = 0;

  std::vector<double> NextBatch(std::size_t count) {
    std::vector<double> batch = stream->Next(count);
    retained.insert(retained.end(), batch.begin(), batch.end());
    while (retained.size() > kWindow) retained.pop_front();
    appended += count;
    return batch;
  }
};

/// Load, bind, connect, and fill the window twice through `append`.
Result<Fixture> SetUp(std::uint64_t seed, std::size_t slowlog_capacity) {
  Fixture f;
  service::ServiceOptions options;
  options.slowlog_capacity = slowlog_capacity;
  f.served = std::make_unique<ServedService>(options);
  VALMOD_RETURN_IF_ERROR(f.served->Start());
  f.transport = std::make_unique<service::TcpTransport>(f.served->port());
  f.client = std::make_unique<service::RetryClient>(*f.transport);
  f.stream = std::make_unique<NoisyStream>(seed);
  std::vector<std::string> lines = {
      "{\"verb\":\"load\",\"dataset\":\"stream\",\"params\":{"
      "\"streaming_length\":" + std::to_string(kLength) +
      ",\"window\":" + std::to_string(kWindow) + "}}"};
  for (std::size_t i = 0; i < kWarmupPoints; i += kWarmupBatch) {
    lines.push_back(AppendLine(f.NextBatch(kWarmupBatch), false));
  }
  lines.push_back(ReadLine(kReadMotifs, false));
  for (const std::string& line : lines) {
    VALMOD_ASSIGN_OR_RETURN(Value response, f.client->Call(line));
    if (!response.GetBool("ok", false)) {
      return Status::Internal("set-up request failed: " + response.Serialize());
    }
  }
  return f;
}

/// Closes the client connection, then the server.
void TearDown(Fixture& f) {
  f.client.reset();
  f.transport.reset();
  f.served.reset();
}

struct Phase {
  std::vector<TimedSample> appends;
  std::vector<TimedSample> reads;
  double budget_s = 0.0;  // the closed loop's length
  std::size_t points = 0;
  std::size_t batches = 0;
  double seconds = 0.0;
  Value stats_before;
  Value stats_after;
  std::vector<TracedRequest> traced;

  double PointsPerSecond() const { return Ratio(points, seconds); }
};

Phase RunPhase(Fixture& f, double seconds, bool trace, Report& report) {
  Phase phase;
  phase.budget_s = seconds;
  phase.stats_before = f.served->Stats();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  WallTimer wall;
  for (std::size_t i = 0; Clock::now() < deadline; ++i) {
    const bool read = i % kReadEvery == kReadEvery - 1;
    const std::string line =
        read ? ReadLine(kReadMotifs, trace) : AppendLine(f.NextBatch(kBatch),
                                                         trace);
    const Clock::time_point sent = Clock::now();
    Result<Value> response = f.client->Call(line);
    const TimedSample timed{
        std::chrono::duration<double>(sent - start).count(),
        std::chrono::duration<double, std::milli>(Clock::now() - sent)
            .count()};
    const double ms = timed.ms;
    bool ok = response.ok() && response->GetBool("ok", false);
    const Value* result = ok ? response->Find("result") : nullptr;
    if (read) {
      phase.reads.push_back(timed);
      ok = result != nullptr && result->GetBool("maintained", false);
    } else {
      phase.appends.push_back(timed);
      phase.points += kBatch;
      ++phase.batches;
      ok = result != nullptr &&
           result->GetNumber("points", 0) == static_cast<double>(kWindow) &&
           result->GetNumber("total_appended", 0) ==
               static_cast<double>(f.appended);
    }
    report.Operation(ok);
    if (trace && response.ok()) phase.traced.push_back(ReadTrace(*response, ms));
  }
  phase.seconds = wall.ElapsedSeconds();
  phase.stats_after = f.served->Stats();
  return phase;
}

/// The maintained top-k after the phase against batch STOMP over the raw
/// values the window retains.
void CheckFinalTopK(Fixture& f, Report& report) {
  const std::vector<double> raw(f.retained.begin(), f.retained.end());
  auto window = series::DataSeries::Create(raw);
  auto profile = window.ok() ? mp::ComputeStomp(*window, kLength)
                             : Result<mp::MatrixProfile>(window.status());
  auto response = f.client->Call(ReadLine(kCheckedMotifs, false));
  report.Operation(response.ok() && response->GetBool("ok", false));
  if (!profile.ok() || !response.ok()) {
    report.CheckFailed("final top-k check could not run");
    return;
  }
  const std::vector<mp::MotifEntry> oracle =
      mp::TopKMotifs(*profile, kCheckedMotifs);
  const Value* result = response->Find("result");
  const Value* ranked = result != nullptr ? result->Find("ranked") : nullptr;
  bool same = ranked != nullptr && ranked->is_array() &&
              ranked->AsArray().size() == oracle.size();
  for (std::size_t r = 0; same && r < oracle.size(); ++r) {
    const Value& m = ranked->AsArray()[r];
    same = m.GetNumber("offset_a", -1) ==
               static_cast<double>(oracle[r].offset_a) &&
           m.GetNumber("offset_b", -1) ==
               static_cast<double>(oracle[r].offset_b) &&
           std::abs(m.GetNumber("distance", -1) - oracle[r].distance) <=
               kCheckTolerance;
  }
  if (!same) {
    report.CheckFailed("maintained top-k differs from STOMP on the window: " +
                       (ranked != nullptr ? ranked->Serialize() : "none"));
  }
}

/// Replays the traced phase's input — the same seeded stream, the same
/// batches — into a bare mp::StreamingProfile, timing each AppendAll and
/// each maintained top-k read at the positions the service answered them.
void ReplayIntoProfile(std::uint64_t seed, const Phase& phase,
                       double append_p50_ms, Report& report) {
  mp::StreamingOptions options;
  options.max_points = kWindow;
  auto profile = mp::StreamingProfile::Create(kLength, options);
  if (!profile.ok()) {
    report.CheckFailed("streaming profile: " + profile.status().ToString());
    return;
  }
  NoisyStream stream(seed);
  for (std::size_t i = 0; i < kWarmupPoints; i += kWarmupBatch) {
    (void)profile->AppendAll(stream.Next(kWarmupBatch));
  }
  std::vector<double> append_ms, read_ms;
  for (std::size_t b = 0; b < phase.batches; ++b) {
    const std::vector<double> batch = stream.Next(kBatch);
    WallTimer timer;
    const Status status = profile->AppendAll(batch);
    append_ms.push_back(timer.ElapsedMillis());
    if (!status.ok()) report.CheckFailed("replay: " + status.ToString());
    if (b % (kReadEvery - 1) == kReadEvery - 2) {
      WallTimer read_timer;
      const std::vector<mp::MotifEntry> top = profile->TopMotifs(kReadMotifs);
      read_ms.push_back(read_timer.ElapsedMillis());
      if (top.empty()) report.CheckFailed("replay: empty maintained top-k");
    }
  }
  const double p50 = Median(append_ms);
  report.Metric("mp.append_all_p50_ms", p50);
  report.Metric("mp.append_all_tail_ms", TailPercentile(append_ms).value);
  report.Metric("mp.top_motifs_ms", Median(read_ms));
  report.Metric("mp.evicted_points",
                static_cast<double>(profile->window_start()));
  report.Metric("mp.reanchors", static_cast<double>(profile->anchor_epoch()));
  report.Metric("mp.memory_bytes",
                static_cast<double>(profile->MemoryBytes()));
  report.Metric("service.append_overhead_ms", append_p50_ms - p50);
}

}  // namespace

void RunStreamIngest(const Args& args, Report& report) {
  std::vector<double> setup_s;
  std::optional<Fixture> fixture;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (fixture) TearDown(*fixture);
    WallTimer timer;
    Result<Fixture> made = SetUp(args.seed, service::SlowLog::kDefaultCapacity);
    setup_s.push_back(timer.ElapsedSeconds());
    if (!made.ok()) {
      report.CheckFailed("setup: " + made.status().ToString());
      report.Operation(false);
      return;
    }
    fixture.emplace(std::move(*made));
  }

  const Phase untraced = RunPhase(
      *fixture, args.trace ? args.seconds / 2 : args.seconds, false, report);
  CheckFinalTopK(*fixture, report);
  TearDown(*fixture);

  if (!args.trace) {
    report.Metric("setup_s", Median(setup_s));
    report.Note("work_per_s",
                Value(SlicedRate(untraced.appends, untraced.budget_s,
                                 static_cast<double>(kBatch))));
    report.Metric("op_p50_ms", report.SlicedLatencies("op", untraced.appends,
                                                      untraced.budget_s));
    report.SlicedLatencies("light", untraced.reads, untraced.budget_s);
    return;
  }

  // Traced phase: a fresh service (same seeded stream from its start)
  // whose slow log keeps every request, and requests that ask for spans.
  Result<Fixture> traced_fixture = SetUp(args.seed, kTracedSlowlogCapacity);
  if (!traced_fixture.ok()) {
    report.CheckFailed("traced setup: " + traced_fixture.status().ToString());
    return;
  }
  const Counters before = ReadLayerCounters();
  const Phase traced =
      RunPhase(*traced_fixture, args.seconds / 2, true, report);
  ReportLayerCounters(
      CounterDelta(ReadLayerCounters(), before).value_or(Counters{}), report);
  CheckFinalTopK(*traced_fixture, report);
  ReportSpanMetrics(traced_fixture->served->service().slowlog(), traced.traced,
                    report);
  ReportServiceCounters(traced.stats_before, traced.stats_after, report);
  TearDown(*traced_fixture);

  std::vector<double> untraced_append_ms;
  for (const TimedSample& s : untraced.appends) {
    untraced_append_ms.push_back(s.ms);
  }
  ReplayIntoProfile(args.seed, traced, Median(untraced_append_ms), report);
  report.Metric("service.trace_overhead_pct",
                100.0 * (Ratio(untraced.PointsPerSecond(),
                               traced.PointsPerSecond()) -
                         1.0));
}

}  // namespace valmod::perfbench
