// Shared pieces of the serving benchmark: timing, the measuring sink, the
// output check, the span recorder of the traced run and the result line.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/query.h"
#include "core/sink.h"
#include "graph/view.h"

namespace perfbench {

using pathenum::GraphView;
using pathenum::PathBlockView;
using pathenum::PathSink;
using pathenum::Query;
using pathenum::QueryState;
using pathenum::VertexId;
using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

/// Deterministic 64-bit mix of (seed, index): per-index draws need no
/// shared generator state, so concurrent clients see one fixed sequence.
uint64_t Mix(uint64_t seed, uint64_t index);

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Pct(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Bytes malloc has handed out and not taken back (heap in use), in MiB.
double HeapInUseMb();

/// True when a run with this terminal state delivered a well-formed result
/// (complete, or a prefix cut by the result limit).
inline bool Delivered(QueryState s) {
  return s == QueryState::kOk || s == QueryState::kTruncated;
}

/// The benchmark's sink: counts paths in O(1) per block, notes when the
/// min(response_target, n)-th path arrived, and — for sampled queries —
/// keeps every path for the output check.
class MeasuringSink : public PathSink {
 public:
  MeasuringSink(Clock::time_point start, uint64_t response_target,
                bool collect)
      : start_(start), target_(response_target), collect_(collect) {}

  bool OnPath(std::span<const VertexId> path) override;
  BlockResult OnBlock(const PathBlockView& block) override;

  uint64_t count() const { return count_; }
  /// Milliseconds from `start` to the min(target, count)-th path; negative
  /// when no path arrived.
  double response_ms() const {
    return count_ == 0 ? -1.0 : MsBetween(start_, last_);
  }
  const std::vector<VertexId>& vertices() const { return vertices_; }
  const std::vector<uint32_t>& offsets() const { return offsets_; }

 private:
  void Note(uint64_t n) {
    if (count_ < target_) last_ = Clock::now();
    count_ += n;
  }
  void Append(std::span<const VertexId> path);

  Clock::time_point start_;
  Clock::time_point last_{};
  uint64_t target_;
  bool collect_;
  uint64_t count_ = 0;
  std::vector<VertexId> vertices_;  // collected paths, concatenated
  std::vector<uint32_t> offsets_{0};
};

/// One sampled query of the timed window, checked after it.
struct Sample {
  Query query;
  std::shared_ptr<const GraphView> snapshot;
  pathenum::EnumOptions opts;
  QueryState state = QueryState::kOk;
  uint64_t delivered = 0;
  /// Path-validity verdict, when the paths were validated right after the
  /// query (deep_k5 keeps no paths past its query).
  bool validated = false;
  std::string path_error;
  std::unique_ptr<MeasuringSink> sink;  // holds the paths otherwise
};

/// Checks every collected path: simple, s -> t, at most k edges, every
/// edge present in `view`, no path twice. Returns "" or the first problem.
std::string ValidatePaths(const GraphView& view, const Query& q,
                          const MeasuringSink& sink);

/// Runs the output check over `samples`: each delivered count must equal a
/// single-threaded PathEnumerator::Run on the same snapshot with the same
/// options, and each path must be valid. Returns the number of mismatches
/// (each printed to stderr).
uint64_t CheckSamples(std::vector<Sample>& samples);

/// In-memory span store of the traced run. Spans are recorded around calls
/// into a layer's public functions and written out as Chrome-trace JSON.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;  // 0 = root
    uint64_t query;   // spans of one request share it
    uint32_t thread;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit SpanRecorder(bool enabled);
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when recording is off). A span is
  /// closed by the thread that opened it. Spans go to a per-thread buffer,
  /// so recording takes no shared lock.
  uint64_t Open(const char* name, uint64_t parent, uint64_t query);
  void Close(uint64_t id);

  /// The readers below expect every recording thread to have finished.
  /// Durations (ms) of every closed span named `name`, in opening order
  /// per thread.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Over root spans that have children (requests and layer-suite
  /// queries): their summed self time over their summed duration — the
  /// share of request time no layer span accounts for.
  double UnattributedFrac() const;
  void WriteChromeTrace(const std::string& path) const;
  size_t size() const;

 private:
  using Buffer = std::vector<Span>;
  Buffer& ThreadBuffer();
  std::vector<Span> AllSpans() const;

  bool enabled_;
  const uint64_t instance_;  // tells this recorder's thread buffers apart
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<uint64_t> next_id_{1};
};

/// RAII span scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, uint64_t parent,
             uint64_t query)
      : rec_(rec), id_(rec.Open(name, parent, query)) {}
  ~ScopedSpan() { rec_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  uint64_t id_;
};

/// Metric list of the result line, in print order.
class Metrics {
 public:
  /// A non-finite value (an empty sample's ratio) is reported as 0.
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  /// Prints one "name value unit" line per metric (human-readable).
  void PrintTable() const;
  /// The contract's final line.
  void PrintResultLine(bool correct, uint64_t attempted,
                       uint64_t failed) const;

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
