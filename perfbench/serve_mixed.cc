// serve_mixed: a closed loop of kClients RetryClient connections over
// loopback TCP to the default epoll front end of a Service holding a
// synthetic ECG series. The seeded stream is only `query` requests: half
// are cache hits (byte-for-byte repeats of one of the client's own recent
// requests), half are misses (new query windows, with lengths on both
// sides of the static cost model's direct/overlap-save crossover, which
// sits between 64 and 96 points at this series size). Misses load
// mass/fft/simd; hits load only parse, cache lookup, serialization and
// transport — the two classes are reported apart.
//
// Gated end to end: op_p50_ms, a miss. Requests/second (work_per_s) and
// hits (light_latency) are noted on the metadata line.

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/timer.h"
#include "mass/engine.h"
#include "mass/query_search.h"
#include "series/generators.h"
#include "service/client.h"

namespace valmod::perfbench {

namespace {

using json::Value;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kPoints = 65536;
// One connection, so at most one request computes at a time. With two,
// miss latency tracked how many cores the shared host left free: on 4
// vCPUs with three of them kept busy by other processes it rose 38%,
// against 8% with one connection.
constexpr int kClients = 1;
// Under the static cost model a single query at 65536 points runs direct
// dots up to length 64 and overlap-save from 96 on.
constexpr std::size_t kLengths[] = {32, 48, 64, 96, 128, 192};
constexpr std::size_t kMatches = 3;
// Requests come in blocks of four, two of them hits; a block always
// starts with a miss, so a hit always has a miss of its own to repeat.
constexpr int kBlock = 4;
constexpr double kHitShare = 0.5;
// A hit repeats one of the client's last kRepeatWindow misses; with every
// client inserting, that stays far inside the cache's LRU capacity.
constexpr std::size_t kRepeatWindow = 16;
// Stream windows start at or after kStreamOffsetBegin; warm-up queries use
// windows before it, so warm-up never pre-caches a stream request.
constexpr std::size_t kStreamOffsetBegin = 256;
constexpr std::size_t kWarmupOffsets[] = {0, 100};
// Misses replayed through the benchmark's own engine: the oracle sample
// of every run, and the layer timing sample of a traced run.
constexpr std::size_t kCheckedMisses = 32;
constexpr std::size_t kReplayedMisses = 64;

std::string QueryLine(const std::vector<std::string>& tokens,
                      std::size_t offset, std::size_t length, bool trace) {
  std::string line = "{\"verb\":\"query\",\"dataset\":\"ecg\",";
  if (trace) line += "\"trace\":true,";
  line += "\"params\":{\"k\":" + std::to_string(kMatches) +
          ",\"values\":" + JoinArray(tokens, offset, length) + "}}";
  return line;
}

struct Fixture {
  std::optional<series::DataSeries> series;
  std::vector<std::string> tokens;
  std::unique_ptr<ServedService> served;
};

/// Generation, load, bind, and warm-up (every query length once per
/// warm-up offset, plus one hit), so FFT plans, series/chunk spectra and
/// connections exist before timing.
Result<Fixture> SetUp(std::uint64_t seed, std::size_t slowlog_capacity) {
  Fixture f;
  VALMOD_ASSIGN_OR_RETURN(series::DataSeries series,
                          synth::ByName("ecg", kPoints, seed));
  f.tokens = RenderValues(
      std::vector<double>(series.values().begin(), series.values().end()));
  service::ServiceOptions options;
  options.slowlog_capacity = slowlog_capacity;
  f.served = std::make_unique<ServedService>(options);
  VALMOD_RETURN_IF_ERROR(
      f.served->service().registry().LoadSeries("ecg", series.Clone())
          .status());
  VALMOD_RETURN_IF_ERROR(f.served->Start());
  f.series.emplace(std::move(series));

  service::TcpTransport transport(f.served->port());
  service::RetryClient client(transport);
  std::vector<std::string> warmup;
  for (const std::size_t offset : kWarmupOffsets) {
    for (const std::size_t length : kLengths) {
      warmup.push_back(QueryLine(f.tokens, offset, length, false));
    }
  }
  warmup.push_back(warmup.front());
  for (const std::string& line : warmup) {
    VALMOD_ASSIGN_OR_RETURN(Value response, client.Call(line));
    if (!response.GetBool("ok", false)) {
      return Status::Internal("warm-up query failed: " + response.Serialize());
    }
  }
  return f;
}

struct Miss {
  std::size_t offset = 0;
  std::size_t length = 0;
  std::string result;  // serialized `result` of the response
};

struct Sample {
  bool hit = false;
  bool ok = false;
  TimedSample timed;
  TracedRequest traced;  // traced phase only
};

struct ClientRun {
  std::vector<Miss> misses;
  std::vector<Sample> samples;
  std::uint64_t retries = 0;
};

/// One client's seeded closed loop until `deadline`.
void RunClient(int client, std::uint64_t seed, const Fixture& f, bool trace,
               Clock::time_point start, Clock::time_point deadline,
               ClientRun* out) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(client) +
          (trace ? 101 : 1));
  std::set<std::pair<std::size_t, std::size_t>> used;
  service::TcpTransport transport(f.served->port());
  service::RetryClient retry_client(transport);
  static constexpr const char* kPatterns[] = {"mmhh", "mhmh", "mhhm"};
  const char* pattern = kPatterns[0];
  for (std::size_t i = 0; Clock::now() < deadline; ++i) {
    if (i % kBlock == 0) pattern = kPatterns[rng.UniformInt(0, 2)];
    Sample sample;
    sample.hit = pattern[i % kBlock] == 'h';
    std::size_t miss_index = 0;
    std::string line;
    if (sample.hit) {
      const std::size_t window = std::min(kRepeatWindow, out->misses.size());
      miss_index = out->misses.size() - 1 -
                   static_cast<std::size_t>(rng.UniformInt(
                       0, static_cast<std::int64_t>(window) - 1));
      const Miss& miss = out->misses[miss_index];
      line = QueryLine(f.tokens, miss.offset, miss.length, trace);
    } else {
      Miss miss;
      do {
        miss.length = kLengths[rng.UniformInt(
            0, static_cast<std::int64_t>(std::size(kLengths)) - 1)];
        // Clients draw disjoint windows (offset modulo kClients), so one
        // client's miss is never another's in-flight or cached request.
        const auto slots = static_cast<std::int64_t>(
            (kPoints - miss.length - kStreamOffsetBegin) / kClients);
        miss.offset = kStreamOffsetBegin +
                      kClients * static_cast<std::size_t>(
                                     rng.UniformInt(0, slots - 1)) +
                      static_cast<std::size_t>(client);
      } while (!used.emplace(miss.offset, miss.length).second);
      line = QueryLine(f.tokens, miss.offset, miss.length, trace);
      out->misses.push_back(std::move(miss));
      miss_index = out->misses.size() - 1;
    }

    const Clock::time_point sent = Clock::now();
    Result<Value> response = retry_client.Call(line);
    sample.timed.ms =
        std::chrono::duration<double, std::milli>(Clock::now() - sent).count();
    sample.timed.start_s =
        std::chrono::duration<double>(sent - start).count();

    if (response.ok() && response->GetBool("ok", false) &&
        response->GetBool("cached", !sample.hit) == sample.hit) {
      const Value* result = response->Find("result");
      std::string bytes = result != nullptr ? result->Serialize() : "";
      Miss& miss = out->misses[miss_index];
      if (sample.hit) {
        sample.ok = !bytes.empty() && bytes == miss.result;
      } else {
        sample.ok = !bytes.empty();
        miss.result = std::move(bytes);
      }
      if (trace) sample.traced = ReadTrace(*response, sample.timed.ms);
    }
    out->samples.push_back(std::move(sample));
  }
  out->retries = retry_client.stats().retries;
}

struct Phase {
  std::vector<ClientRun> clients;
  double budget_s = 0.0;  // the closed loop's length
  double seconds = 0.0;   // until the last response arrived
  std::size_t requests = 0;
  Value stats_before;
  Value stats_after;
  Counters layer_delta;

  /// Every request (`hit` unset) or one class of them.
  std::vector<TimedSample> Samples(std::optional<bool> hit) const {
    std::vector<TimedSample> out;
    for (const ClientRun& c : clients) {
      for (const Sample& s : c.samples) {
        if (!hit || s.hit == *hit) out.push_back(s.timed);
      }
    }
    return out;
  }
  double RequestsPerSecond() const { return Ratio(requests, seconds); }
};

Phase RunPhase(const Fixture& f, std::uint64_t seed, double seconds,
               bool trace) {
  Phase phase;
  phase.clients.resize(kClients);
  phase.budget_s = seconds;
  phase.stats_before = f.served->Stats();
  const Counters before = ReadLayerCounters();
  WallTimer wall;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(RunClient, c, seed, std::cref(f), trace, start,
                         deadline, &phase.clients[c]);
  }
  for (std::thread& t : threads) t.join();
  phase.seconds = wall.ElapsedSeconds();
  phase.layer_delta =
      CounterDelta(ReadLayerCounters(), before).value_or(Counters{});
  phase.stats_after = f.served->Stats();
  for (const ClientRun& c : phase.clients) phase.requests += c.samples.size();
  return phase;
}

/// Counts every sample as an operation, and checks an evenly spaced
/// sample of misses against mass::FindQueryMatches on the benchmark's own
/// engine; returns the replay timings.
std::vector<double> CheckPhase(const Fixture& f, const Phase& phase,
                               std::size_t replayed, Report& report) {
  for (const ClientRun& c : phase.clients) {
    for (const Sample& s : c.samples) report.Operation(s.ok);
  }
  std::vector<const Miss*> misses;
  for (const ClientRun& c : phase.clients) {
    for (const Miss& m : c.misses) misses.push_back(&m);
  }
  mass::MassEngine engine(*f.series);
  mass::QuerySearchOptions options;
  options.k = kMatches;
  std::vector<double> replay_ms;
  const std::size_t count = std::min(replayed, misses.size());
  for (std::size_t i = 0; i < count; ++i) {
    const Miss& miss = *misses[i * misses.size() / count];
    const auto raw = f.series->values().subspan(miss.offset, miss.length);
    if (i == 0) (void)mass::FindQueryMatches(engine, raw, options);  // warm
    WallTimer timer;
    auto matches = mass::FindQueryMatches(engine, raw, options);
    replay_ms.push_back(timer.ElapsedMillis());
    auto served = json::Parse(miss.result);
    bool same = matches.ok() && served.ok();
    if (same) {
      const Value* list = served->Find("matches");
      same = list != nullptr && list->is_array() &&
             list->AsArray().size() == matches->size();
      for (std::size_t r = 0; same && r < matches->size(); ++r) {
        same = static_cast<std::int64_t>(
                   list->AsArray()[r].GetNumber("offset", -1)) ==
               (*matches)[r].offset;
      }
    }
    if (!same) {
      report.CheckFailed("miss at offset " + std::to_string(miss.offset) +
                         " length " + std::to_string(miss.length) +
                         " disagrees with mass::FindQueryMatches");
    }
  }
  return replay_ms;
}

}  // namespace

void RunServeMixed(const Args& args, Report& report) {
  std::vector<double> setup_s;
  std::optional<Fixture> fixture;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fixture.reset();  // stops the previous repeat's server
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

  const Phase untraced = RunPhase(*fixture, args.seed,
                                  args.trace ? args.seconds / 2 : args.seconds,
                                  /*trace=*/false);
  CheckPhase(*fixture, untraced, kCheckedMisses, report);
  const double hits = StatsDelta(untraced.stats_before, untraced.stats_after,
                                "cache", "hits");
  const double lookups =
      hits + StatsDelta(untraced.stats_before, untraced.stats_after, "cache",
                        "misses");
  report.Note("cache_hit_ratio", Value(Ratio(hits, lookups)));
  report.Note("expected_hit_ratio", Value(kHitShare));
  std::uint64_t retries = 0;
  for (const ClientRun& c : untraced.clients) retries += c.retries;
  report.Note("client_retries", Value(static_cast<double>(retries)));

  if (!args.trace) {
    report.Metric("setup_s", Median(setup_s));
    report.Note("work_per_s", Value(SlicedRate(untraced.Samples(std::nullopt),
                                               untraced.budget_s, 1.0)));
    report.Metric("op_p50_ms",
                  report.SlicedLatencies("op", untraced.Samples(/*hit=*/false),
                                         untraced.budget_s));
    report.SlicedLatencies("light", untraced.Samples(/*hit=*/true),
                           untraced.budget_s);
    return;
  }

  // Traced phase: a fresh service whose slow log keeps every request, and
  // requests that ask for their span tree.
  fixture.reset();
  Result<Fixture> traced_fixture = SetUp(args.seed, kTracedSlowlogCapacity);
  if (!traced_fixture.ok()) {
    report.CheckFailed("traced setup: " + traced_fixture.status().ToString());
    return;
  }
  const Phase traced =
      RunPhase(*traced_fixture, args.seed, args.seconds / 2, /*trace=*/true);
  const std::vector<double> traced_replay_ms =
      CheckPhase(*traced_fixture, traced, kReplayedMisses, report);

  ReportLayerCounters(traced.layer_delta, report);
  std::vector<TracedRequest> requests;
  for (const ClientRun& c : traced.clients) {
    for (const Sample& sample : c.samples) requests.push_back(sample.traced);
  }
  ReportSpanMetrics(traced_fixture->served->service().slowlog(), requests,
                    report);
  ReportServiceCounters(traced.stats_before, traced.stats_after, report);
  report.Metric("mass.find_query_matches_ms", Median(traced_replay_ms));
  report.Metric("service.trace_overhead_pct",
                100.0 * (Ratio(untraced.RequestsPerSecond(),
                               traced.RequestsPerSecond()) -
                         1.0));
}

}  // namespace valmod::perfbench
