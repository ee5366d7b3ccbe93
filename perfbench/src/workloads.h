// The four serving workloads: their inputs (made from the seed only), the
// engines they drive, and the closed-loop runners shared by the timed
// window and the traced replay.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "graph/graph.h"
#include "harness.h"
#include "live/async_engine.h"

namespace perfbench {

using pathenum::AsyncEngine;
using pathenum::EnumOptions;
using pathenum::Graph;
using pathenum::GraphDelta;
using pathenum::QueryEngine;

enum class FrontEnd { kAsync, kBatch };

struct WorkloadSpec {
  const char* name;
  const char* dataset;
  double scale;
  FrontEnd front;
  /// Queries per RunBatch call (batch front-end only).
  uint32_t batch = 1;
  bool split = false;
  /// One SubmitUpdate per this many submitted queries (0 = read-only).
  uint32_t write_every = 0;
  /// The percentile reported as latency_ms_tail: the highest one with at
  /// least ten samples beyond it in a run.
  double tail_pct = 99.0;
  /// Distinct queries the timed window may draw per second of run time
  /// (cold workloads never repeat a query).
  uint32_t pool_per_second = 0;
  /// Sampled requests: one in `sample_every`, at most `sample_cap`.
  uint32_t sample_every = 1;
  uint32_t sample_cap = 0;
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// Identity of a query for deduplication: (s, t, k).
uint64_t KeyOf(const Query& q);

/// "<data_dir>/<dataset>_<scale>.bin"
std::string GraphPath(const std::string& data_dir, const WorkloadSpec& w);

/// Generates the workload's dataset and writes it (atomically) unless the
/// file already exists.
void PrepareDataset(const std::string& data_dir, const WorkloadSpec& w);

/// Everything the program sees of a workload, made from the seed.
struct Inputs {
  EnumOptions opts;
  /// Cold workloads: distinct queries in draw order. live_skew: the hot
  /// keys, hottest first.
  std::vector<Query> pool;
  /// Warm-up queries, disjoint from the pool.
  std::vector<Query> warm;
  std::vector<double> zipf_cdf;  // live_skew only
  uint64_t seed = 0;

  /// The query of request slot `i`.
  Query At(uint64_t i) const;
  /// Requests the timed window can issue before the pool runs out.
  uint64_t MaxQueries() const;
};

Inputs MakeInputs(const WorkloadSpec& w, const Graph& g, uint64_t seed,
                  double seconds);

/// The write stream of live_skew: each update inserts 8 random new edges
/// and deletes the 8 inserted 8 updates earlier. Deterministic per seed.
class DeltaStream {
 public:
  DeltaStream(const Graph& base, uint64_t seed);
  GraphDelta Next();

 private:
  const Graph& base_;
  uint64_t seed_;
  uint64_t drawn_ = 0;
  std::deque<std::vector<std::pair<VertexId, VertexId>>> history_;
  std::set<std::pair<VertexId, VertexId>> live_;
};

/// Request budget of one runner call: stop at the deadline or after
/// `max_requests`, whichever first.
struct Budget {
  double seconds = 1.0;
  uint64_t max_requests = UINT64_MAX;
};

/// What one closed-loop runner call observed.
struct WindowResult {
  double elapsed_ms = 0.0;
  uint64_t requests = 0;
  uint64_t queries = 0;
  uint64_t failed = 0;  // terminal state other than ok / truncated
  uint64_t paths = 0;
  uint64_t zero_result = 0;
  std::vector<double> latency_ms;   // per request
  std::vector<double> response_ms;  // per query with at least one path
  std::vector<double> results_per_query;
  std::vector<double> submit_us;    // async: Submit call duration
  std::vector<double> queue_depth;  // async, traced only
  std::vector<double> update_ms;    // SubmitUpdate latency
  std::vector<Sample> samples;
  double repeat_share = 0.0;
};

/// Closed loop over an AsyncEngine: one client thread per outstanding
/// ticket (`clients` of them), each submitting and waiting on its own
/// ticket; with writes, a writer thread applies one SubmitUpdate per
/// `write_every` submissions. `first` offsets the request slots.
WindowResult RunAsyncWindow(AsyncEngine& engine, const WorkloadSpec& w,
                            const Inputs& in, const Graph* base,
                            uint32_t clients, Budget budget, uint64_t first,
                            SpanRecorder& rec);

/// Closed loop over a QueryEngine: one caller, one RunBatch of
/// `w.batch` queries at a time.
WindowResult RunBatchWindow(QueryEngine& engine, const WorkloadSpec& w,
                            const Inputs& in, Budget budget, uint64_t first,
                            SpanRecorder& rec);

/// A constructed front-end plus the graph it serves.
struct Served {
  std::unique_ptr<Graph> graph;  // batch front-end (borrowed by engine)
  std::unique_ptr<QueryEngine> batch;
  std::unique_ptr<AsyncEngine> async;
};

/// Loads the graph, constructs the workload's front-end with nproc
/// workers and warms it up to the first timed query.
Served SetUp(const WorkloadSpec& w, const std::string& graph_path,
             const Inputs& in, uint32_t workers);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
