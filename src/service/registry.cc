#include "service/registry.h"

#include <atomic>
#include <utility>

#include "common/fault.h"

namespace valmod::service {

namespace {

/// Process-unique dataset ids (see Dataset::uid). Starts at 1 so 0 reads
/// as "no dataset".
std::uint64_t NextDatasetUid() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::shared_ptr<Dataset> Dataset::CreateStatic(std::string name,
                                               series::DataSeries series) {
  auto dataset = std::shared_ptr<Dataset>(new Dataset());
  dataset->name_ = std::move(name);
  dataset->uid_ = NextDatasetUid();
  dataset->snapshot_ =
      std::make_shared<DatasetSnapshot>(std::move(series), /*generation=*/1);
  return dataset;
}

Result<std::shared_ptr<Dataset>> Dataset::CreateStreaming(
    std::string name, std::size_t subsequence_length,
    double exclusion_fraction, std::size_t max_points) {
  mp::StreamingOptions options;
  options.exclusion_fraction = exclusion_fraction;
  options.max_points = max_points;
  VALMOD_ASSIGN_OR_RETURN(
      mp::StreamingProfile profile,
      mp::StreamingProfile::Create(subsequence_length, options));
  auto dataset = std::shared_ptr<Dataset>(new Dataset());
  dataset->name_ = std::move(name);
  dataset->uid_ = NextDatasetUid();
  dataset->streaming_length_ = subsequence_length;
  dataset->max_points_ = max_points;
  dataset->streaming_.emplace(std::move(profile));
  return dataset;
}

std::uint64_t Dataset::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

std::size_t Dataset::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (streaming_) return streaming_->size();
  return snapshot_ ? snapshot_->series().size() : 0;
}

Result<std::shared_ptr<const DatasetSnapshot>> Dataset::Snapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (snapshot_ && snapshot_->generation() == generation_) return snapshot_;
  // Streaming dataset whose snapshot trails the appends (or was never
  // built): materialize a DataSeries from the appended values at the
  // current generation. The build is O(n) plus the engine's lazily built
  // caches; it happens at most once per generation, on the first query
  // that needs batch access after an append.
  if (!streaming_) {
    return Status::Internal("static dataset lost its snapshot");
  }
  if (streaming_->size() == 0) {
    return Status::FailedPrecondition(
        "streaming dataset '" + name_ + "' has no points yet");
  }
  // Models the O(n) snapshot materialization failing; the dataset keeps
  // its appended values and the next query retries the build.
  VALMOD_RETURN_IF_ERROR(VALMOD_FAULT_POINT("registry.snapshot.alloc"));
  const auto values = streaming_->values();
  // The stats are centered at 0 over the anchor-shifted values rather than
  // at the materialized window's own mean: z-normalized queries cannot tell
  // the difference, but it makes `centered()` bit-stable while the window
  // grows in place, which is what lets the new engine adopt the previous
  // generation's overlap-save chunk spectra below.
  VALMOD_ASSIGN_OR_RETURN(
      series::DataSeries series,
      series::DataSeries::CreateWithCenter({values.begin(), values.end()},
                                           /*center=*/0.0));
  auto next =
      std::make_shared<DatasetSnapshot>(std::move(series), generation_);
  // Pure-extension fast path: if the retained values are the previous
  // snapshot's values plus appended points (same anchor epoch, same window
  // start, grew), seed the new engine's chunk-spectra cache from the old
  // one so only the chunks the new points touch are recomputed —
  // O(new points), not O(n), per generation.
  if (snapshot_ && snapshot_points_ > 0 &&
      snapshot_anchor_epoch_ == streaming_->anchor_epoch() &&
      snapshot_window_start_ == streaming_->window_start() &&
      snapshot_points_ <= values.size()) {
    next->engine().AdoptChunkSpectraFrom(snapshot_->engine(),
                                         snapshot_points_);
  }
  snapshot_ = std::move(next);
  snapshot_points_ = values.size();
  snapshot_anchor_epoch_ = streaming_->anchor_epoch();
  snapshot_window_start_ = streaming_->window_start();
  return snapshot_;
}

Result<Dataset::AppendResult> Dataset::Append(std::span<const double> values) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!streaming_) {
    return Status::FailedPrecondition(
        "dataset '" + name_ + "' is not streaming; append is not supported");
  }
  if (values.empty()) {
    return Status::InvalidArgument("append requires at least one value");
  }
  VALMOD_RETURN_IF_ERROR(streaming_->AppendAll(values));
  ++generation_;  // invalidates cached snapshot and every result-cache key
  AppendResult result;
  result.points = streaming_->size();
  result.subsequences = streaming_->NumSubsequences();
  result.generation = generation_;
  result.window_start = streaming_->window_start();
  result.evicted = streaming_->window_start();
  result.total_appended = streaming_->total_appended();
  return result;
}

Result<Dataset::StreamingState> Dataset::StreamingProfileSnapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!streaming_) {
    return Status::FailedPrecondition(
        "dataset '" + name_ + "' is not streaming; it has no incremental "
        "profile (use the profile verb with a length instead)");
  }
  StreamingState state;
  state.profile = streaming_->ProfileSnapshot();  // copy under the lock
  state.generation = generation_;
  state.points = streaming_->size();
  state.window_start = streaming_->window_start();
  return state;
}

Result<Dataset::StreamingTopK> Dataset::StreamingTopKSnapshot(
    std::size_t k_motifs, std::size_t k_discords) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!streaming_) {
    return Status::FailedPrecondition(
        "dataset '" + name_ + "' is not streaming; it has no maintained "
        "top-k (use the motifs/discords verbs with a length range instead)");
  }
  // One O(W) snapshot serves both rankings; a ranking asked for 0 entries
  // returns at once without collecting or sorting rows.
  const mp::MatrixProfile profile = streaming_->ProfileSnapshot();
  StreamingTopK top;
  top.motifs = mp::TopKMotifs(profile, k_motifs);
  top.discords = mp::TopKDiscords(profile, k_discords);
  top.generation = generation_;
  top.points = streaming_->size();
  top.window_start = streaming_->window_start();
  return top;
}

Dataset::MemoryInfo Dataset::Memory() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MemoryInfo info;
  if (streaming_) {
    info.memory_bytes = streaming_->MemoryBytes();
    info.retained = streaming_->size();
    info.max_points = max_points_;
    info.evicted_total = streaming_->window_start();
    info.total_appended = streaming_->total_appended();
  } else if (snapshot_) {
    info.retained = snapshot_->series().size();
    info.total_appended = info.retained;
  }
  if (snapshot_) {
    info.memory_bytes += snapshot_->series().MemoryBytes() +
                         snapshot_->engine().CacheMemoryBytes();
  }
  return info;
}

Result<std::shared_ptr<Dataset>> DatasetRegistry::LoadSeries(
    const std::string& name, series::DataSeries series) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (datasets_.count(name) > 0) {
    return Status::FailedPrecondition(
        "dataset '" + name + "' is already loaded (unload it first)");
  }
  // Models the allocation of the dataset's series/stats arrays failing:
  // the name must stay unclaimed and the registry untouched, so a retried
  // load after the fault clears succeeds.
  VALMOD_RETURN_IF_ERROR(VALMOD_FAULT_POINT("registry.load.alloc"));
  auto dataset = Dataset::CreateStatic(name, std::move(series));
  datasets_.emplace(name, dataset);
  return dataset;
}

Result<std::shared_ptr<Dataset>> DatasetRegistry::CreateStreaming(
    const std::string& name, std::size_t subsequence_length,
    double exclusion_fraction, std::size_t max_points) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (datasets_.count(name) > 0) {
    return Status::FailedPrecondition(
        "dataset '" + name + "' is already loaded (unload it first)");
  }
  VALMOD_ASSIGN_OR_RETURN(
      std::shared_ptr<Dataset> dataset,
      Dataset::CreateStreaming(name, subsequence_length, exclusion_fraction,
                               max_points));
  datasets_.emplace(name, dataset);
  return dataset;
}

Result<std::shared_ptr<Dataset>> DatasetRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("no dataset named '" + name + "'");
  }
  return it->second;
}

Status DatasetRegistry::Unload(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("no dataset named '" + name + "'");
  }
  // In-flight requests hold their own shared_ptr; this only drops the name.
  datasets_.erase(it);
  return Status::Ok();
}

std::vector<DatasetRegistry::Info> DatasetRegistry::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Info> infos;
  infos.reserve(datasets_.size());
  for (const auto& [name, dataset] : datasets_) {
    Info info;
    info.name = name;
    info.points = dataset->size();
    info.generation = dataset->generation();
    info.streaming = dataset->streaming();
    info.streaming_length = dataset->streaming_length();
    info.max_points = dataset->max_points();
    const Dataset::MemoryInfo memory = dataset->Memory();
    info.evicted = memory.evicted_total;
    info.total_appended = memory.total_appended;
    info.memory_bytes = memory.memory_bytes;
    infos.push_back(std::move(info));
  }
  return infos;
}

std::size_t DatasetRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return datasets_.size();
}

}  // namespace valmod::service
