// The batch QueryEngine: hop-constrained path queries at service scale.
// Where PathEnumerator answers one query on the calling thread, the engine
// keeps N workers alive across batches on the shared Scheduler (DESIGN.md
// §5), each with a reusable PathEnumerator. RunBatch groups the batch on
// the caller thread, passes every group through the scheduler's one gate
// (invalid queries complete as kRejected, oracle-certified ones as
// kUnsatisfiable, neither enqueued), enqueues the rest, and waits for the
// queue to drain: idle workers claim whole query groups. Optionally a
// batch runs with intra-query parallelism: queries run one at a time, the
// worker that claims one leads it, and its units — first-level DFS
// branches, or the split IDX-JOIN's half/probe units — fan out to the idle
// workers, which is the right shape for a few heavy queries rather than
// many small ones (§8).
//
// With `EngineOptions::enable_cache` the engine additionally keeps a
// cross-query IndexCache shared by all workers (DESIGN.md §6): batches
// deduplicate identical queries (one run fans its results out to every
// duplicate's sink), cache hits are enqueued ahead of misses, and
// concurrent workers on the same missing key build the index exactly once.
#ifndef PATHENUM_ENGINE_QUERY_ENGINE_H_
#define PATHENUM_ENGINE_QUERY_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/query.h"
#include "core/sink.h"
#include "engine/index_cache.h"
#include "engine/scheduler.h"
#include "graph/view.h"
#include "live/live_oracle.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace pathenum {

/// Engine construction knobs.
struct EngineOptions {
  /// Worker threads (and contexts): 0 picks hardware_concurrency(), and
  /// any request is clamped to it (Scheduler::WorkersFor).
  uint32_t num_workers = 0;

  /// When true the engine keeps a cross-query cache of per-query indexes
  /// (and, budget permitting, fully-enumerated result sets) shared by all
  /// workers. See DESIGN.md §6.
  bool enable_cache = false;

  /// Budgets/sharding for the cache (used only with enable_cache).
  IndexCacheOptions cache;
};

/// Per-batch knobs.
struct BatchOptions {
  /// Applied to every query of the batch.
  EnumOptions query;

  /// When true, queries execute one at a time with their work spread
  /// across the workers (serializing sink calls per query): the planned
  /// method — the same PlanExecution decision the serial path makes — runs
  /// either as fanned-out first-level DFS branches or as the split
  /// IDX-JOIN's independent half/probe units (DESIGN.md §8). When false
  /// (default), each query runs entirely on the one worker that claimed
  /// it off the shared queue.
  bool split_branches = false;

  /// Consult/populate the engine's cross-query cache (no-op when the
  /// engine was constructed without one).
  bool use_cache = true;

  /// Collapse identical (s, t, k) queries within the batch: the group runs
  /// once and the paths fan out to every duplicate's sink (each sink may
  /// still stop independently). Duplicates report the shared run's stats.
  bool dedup_identical = true;
};

/// Outcome of RunBatch. `stats[i]`/`errors[i]`/`states[i]` belong to
/// `queries[i]`; a non-empty error string means the query did not run
/// (its stats are default) — other queries of the batch are unaffected.
///
/// `states[i]` is the query's terminal state (DESIGN.md §10):
///  - kOk: complete result set delivered.
///  - kTruncated: a well-formed prefix was delivered, cut short by the
///    result limit, a sink stop, the memory budget, or the work budget.
///  - kDeadlineExceeded / kCancelled: ditto, cut short by the deadline or
///    the cancel token — possibly zero paths if the index build itself was
///    interrupted. Everything delivered before the trip is valid.
///  - kRejected: invalid input (CheckQuery failed); nothing ran and
///    `errors[i]` says why.
///  - kError: the run threw; delivered paths up to that point are valid
///    but the set is not a guaranteed prefix of any complete enumeration.
///  - kUnsatisfiable: the live oracle (SetLiveOracle) certified
///    dist(s,t) > k before dispatch; the complete (empty) result set was
///    delivered without touching the sink.
struct BatchResult {
  std::vector<QueryStats> stats;
  std::vector<std::string> errors;
  std::vector<QueryState> states;
  double wall_ms = 0.0;
  /// Workers the batch could occupy: min(workers, tasks) for a plain batch,
  /// every worker for a split one.
  uint32_t workers = 0;
  /// Cache activity during this batch (all zeros without a cache): hits,
  /// misses, evictions and current byte gauges.
  IndexCacheStats cache;

  /// Always 0; engines no longer fuse builds (DESIGN.md §11): every cache
  /// miss builds solo on the worker that claimed it.
  uint64_t batched_builds = 0;

  bool ok() const {
    for (const std::string& e : errors) {
      if (!e.empty()) return false;
    }
    return true;
  }

  uint64_t TotalResults() const {
    uint64_t total = 0;
    for (const QueryStats& s : stats) total += s.counters.num_results;
    return total;
  }

  /// Batch throughput in queries per second.
  double QueriesPerSec() const {
    return wall_ms > 0.0 ? static_cast<double>(stats.size()) /
                               (wall_ms / 1e3)
                         : 0.0;
  }
};

/// Batch query engine over a persistent worker scheduler. One instance per
/// graph/session; the bound graph/view must outlive it. RunBatch may be called
/// any number of times, from one thread at a time.
class QueryEngine {
 public:
  /// Accepts a plain `Graph` (implicit borrowing view, version 0) or a live
  /// `GraphView` snapshot.
  explicit QueryEngine(const GraphView& view, const EngineOptions& opts = {});
  ~QueryEngine();

  uint32_t num_workers() const { return scheduler_.num_workers(); }
  const Graph& graph() const { return view_.base(); }
  const GraphView& view() const { return view_; }

  /// Runs the batch; `sinks[i]` receives exactly the paths of `queries[i]`.
  /// With split_branches each sink must tolerate calls from worker threads
  /// (calls are serialized by the engine, so plain sinks are safe); without
  /// it, sink i is only ever touched by the single worker running query i.
  /// With dedup_identical, the sinks of identical queries are all fed from
  /// one run on one worker.
  BatchResult RunBatch(std::span<const Query> queries,
                       std::span<PathSink* const> sinks,
                       const BatchOptions& opts = {});

  /// Live-graph form: runs the whole batch against `view` (every query
  /// observes exactly that snapshot), rebinding the worker contexts when
  /// the snapshot differs from the currently bound one — cheap, scratch
  /// survives, and within one snapshot lineage the caches are NOT cleared:
  /// cache entries carry snapshot versions and epochs invalidate them
  /// incrementally (see IndexCache::BeginEpoch / DESIGN.md §7). Safety
  /// nets for callers outside that discipline: a version advance the cache
  /// never saw an epoch for, and a base-graph swap without a version
  /// advance, each degrade to a full clear. Successive views should come
  /// from one SnapshotManager (monotone versions); use RebindGraph for an
  /// unrelated graph.
  BatchResult RunBatch(const GraphView& view, std::span<const Query> queries,
                       std::span<PathSink* const> sinks,
                       const BatchOptions& opts = {});

  /// Convenience: counts every query's results (per-query CountingSink).
  BatchResult CountBatch(std::span<const Query> queries,
                         const BatchOptions& opts = {});

  /// Connects the standing live oracle (borrowed; null detaches). Each
  /// batch pins the oracle epoch matching the bound view's exact snapshot
  /// version and base identity, and the scheduler's gate sheds the queries
  /// it certifies unsatisfiable in O(|label| + |C|²) instead of enqueueing
  /// them — across overlay rebinds and publishes alike. Any mismatch
  /// (racing publish, re-label, unrelated rebind) degrades to "no claim",
  /// never to a wrong rejection. Must not race RunBatch.
  void SetLiveOracle(const LiveDistanceOracle* oracle) {
    live_oracle_ = oracle;
  }

  /// The cross-query cache, or null when not enabled.
  IndexCache* cache() { return cache_.get(); }

  /// Drops every cached index/result (generation-stamped; see
  /// IndexCache::Clear). No-op without a cache.
  void InvalidateCaches();

  /// Points the engine at a different graph and invalidates the caches (a
  /// cached index describes the old topology); workers rebind to it per task,
  /// scratch resizing lazily. Must not race RunBatch. The new graph must
  /// outlive the engine. For incremental updates prefer RunBatch(view, ...) +
  /// IndexCache::BeginEpoch, which keep unaffected cache entries alive.
  void RebindGraph(const Graph& g);

  /// Aggregate footprint/usage over all worker enumerators.
  struct EngineStats {
    size_t scratch_bytes = 0;    // reusable scratch across all enumerators
    uint64_t queries_run = 0;    // queries executed since construction
    uint64_t batches_run = 0;
    /// Queries shed as kUnsatisfiable by the live oracle before dispatch,
    /// duplicates included.
    uint64_t oracle_rejects = 0;
  };
  EngineStats Stats() const;

 private:
  GraphView view_;
  const LiveDistanceOracle* live_oracle_ = nullptr;  // see SetLiveOracle
  std::unique_ptr<IndexCache> cache_;  // null unless opts.enable_cache
  /// ShardedCounter storage (DESIGN.md §12): Stats() and the registry's
  /// `pathenum_engine_*` metrics read the same slots.
  obs::ShardedCounter batches_run_;
  obs::ShardedCounter queries_run_;
  obs::ShardedCounter oracle_rejects_;
  /// Declared last: its workers finish tasks into the counters above.
  Scheduler scheduler_;
};

}  // namespace pathenum

#endif  // PATHENUM_ENGINE_QUERY_ENGINE_H_
