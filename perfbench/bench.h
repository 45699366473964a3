#ifndef VALMOD_PERFBENCH_BENCH_H_
#define VALMOD_PERFBENCH_BENCH_H_

// Shared plumbing of the repository benchmark (see README.md): run
// arguments, the per-run report every workload fills, process-level
// measurements, layer counter snapshots, and an epoll-served Service that
// the two serving workloads drive over loopback TCP.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "service/server.h"
#include "service/tcp_server.h"
#include "stats.h"

namespace valmod::perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 35.0;
  bool trace = false;
};

/// Everything one run prints: the check outcome, operation counts, the
/// metrics, and free-form facts about the run (sample counts, effective
/// tail percentiles) that go on the metadata line.
class Report {
 public:
  void Metric(const std::string& name, double value) { metrics_[name] = value; }

  /// Counts one operation; a failed one also fails the run's check.
  void Operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A whole-run check (oracle comparison, calibration guard) that failed:
  /// the run is reported incorrect and the reason goes to stderr.
  void CheckFailed(const std::string& why);
  void Note(const std::string& key, json::Value value) {
    notes_[key] = std::move(value);
  }

  /// Notes a latency class on the metadata line as `<prefix>_latency`:
  /// its p50, its tail (see TailPercentile) with the percentile reached,
  /// and the sample count. Returns the p50. Only the `op` class's p50 is a
  /// gated metric (op_p50_ms): on a shared host the light classes, the
  /// throughputs and every tail moved by more than any usable bound
  /// between runs.
  double Latencies(const std::string& prefix, const std::vector<double>& ms);

  /// The same for a timed loop, taken per time slice (see kSlices): the
  /// p50 and tail are medians over slices.
  double SlicedLatencies(const std::string& prefix,
                         const std::vector<TimedSample>& samples,
                         double seconds);

  const std::map<std::string, double>& metrics() const { return metrics_; }
  const std::map<std::string, json::Value>& notes() const { return notes_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return checks_ok_ && failed_ == 0; }

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, json::Value> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool checks_ok_ = true;
};

/// The workloads. Each sets up (several times, reporting the median as
/// setup_s), measures for args.seconds, checks its outputs outside the
/// timed region, and fills either the end-to-end metrics (trace off) or
/// the per-layer metrics (trace on).
void RunValmodEcg(const Args& args, Report& report);
void RunServeMixed(const Args& args, Report& report);
void RunStreamIngest(const Args& args, Report& report);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 9;

/// A timed loop is summarized per slice of kSlices equal time slices, and
/// each metric reported as the median over slices: a burst of outside
/// interference on a shared machine then moves one slice, not the run.
inline constexpr std::size_t kSlices = 5;

/// Work per second of a timed loop: the median over slices of
/// `weight` x (operations started in the slice) / slice length.
double SlicedRate(const std::vector<TimedSample>& samples, double seconds,
                  double weight);

/// Pins the calling thread to each CPU it may run on in turn, and restores
/// its original affinity on destruction. Single-threaded reps rotate over
/// the cores so that a run's median does not hinge on which core the
/// scheduler happened to pick, on machines whose cores are not equally
/// fast (shared hosts).
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void PinNext();

 private:
  std::vector<int> cpus_;  // allowed CPUs at construction; empty = no-op
  std::size_t next_ = 0;
};

/// Peak resident set of this process so far, in MiB.
double PeakRssMib();

/// Process-wide layer counters: MASS engine rows per backend and spectra
/// cache traffic (mass.*), FFT plan registry traffic (fft.*), and SIMD
/// kernel calls per kind summed over targets (simd.<kind>_calls).
Counters ReadLayerCounters();

/// Reports the layer-counter metrics of one phase from its delta.
void ReportLayerCounters(const Counters& delta, Report& report);

/// Guards that keep backend choice fixed within and across runs: no
/// calibration ran and the cost-model generation is the one the run
/// started with. A failure is a whole-run check failure.
class CostModelGuard {
 public:
  CostModelGuard();
  void Check(Report& report) const;

 private:
  std::uint64_t generation_;
};

/// Parses the span tree RenderTraceJson writes ({"spans":[...]}).
std::vector<Span> ParseSpans(const json::Value& trace);

/// What the benchmark keeps of one request sent with "trace":true.
struct TracedRequest {
  std::string trace_id;
  double client_ms = 0.0;   // the round trip as the client saw it
  double request_ms = 0.0;  // the server's root "request" span
};

/// Reads the trace id and root span of a traced response.
TracedRequest ReadTrace(const json::Value& response, double client_ms);

/// Stage metrics of traced requests: p50 of each stage span
/// (service.parse_ms, plan, cache_lookup, serialize, compute), of the root
/// span's self time (service.request_self_ms), of the client-seen latency
/// beyond the root span (service.wire_ms), and p50/tail of queue_wait.
/// Spans come from `slowlog`, which must have kept every traced request
/// (the serialize span lands there, after the response's tree is
/// rendered). A stage reads 0 when no request went through it.
///
/// kTracedSlowlogCapacity is the slow-log size a traced phase's service
/// gets so that it keeps every request.
inline constexpr std::size_t kTracedSlowlogCapacity = 1 << 20;
void ReportSpanMetrics(const service::SlowLog& slowlog,
                       const std::vector<TracedRequest>& requests,
                       Report& report);

/// The change of one `stats` counter (result.<group>.<field>) over a phase.
double StatsDelta(const json::Value& before, const json::Value& after,
                  const char* group, const char* field);

/// service.cache_hit_ratio, .rejected, .shed and .coalesced over a phase.
void ReportServiceCounters(const json::Value& before, const json::Value& after,
                           Report& report);

/// A Service behind the default epoll front end on an ephemeral loopback
/// port, served from its own thread. Stop() (also run by the destructor)
/// sends the shutdown verb and joins the thread; clients must have closed
/// their connections first.
class ServedService {
 public:
  explicit ServedService(const service::ServiceOptions& options);
  ~ServedService();

  ServedService(const ServedService&) = delete;
  ServedService& operator=(const ServedService&) = delete;

  Status Start();
  void Stop();

  service::Service& service() { return service_; }
  int port() const { return port_; }

  /// The in-process `stats` verb's result object.
  json::Value Stats();

 private:
  service::Service service_;
  std::unique_ptr<service::TcpServer> server_;
  int port_ = 0;
  std::thread serve_thread_;
};

/// "%.17g" of every value, so a request built from these tokens carries
/// the exact doubles.
std::vector<std::string> RenderValues(const std::vector<double>& values);

/// Joins tokens [begin, begin + count) as a JSON array.
std::string JoinArray(const std::vector<std::string>& tokens,
                      std::size_t begin, std::size_t count);

}  // namespace valmod::perfbench

#endif  // VALMOD_PERFBENCH_BENCH_H_
