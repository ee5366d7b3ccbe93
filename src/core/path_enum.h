// The PathEnum driver — the full pipeline of paper Figure 2:
//   1. build the light-weight index for q(s, t, k);
//   2. preliminary cardinality estimate T̂ (Eq. 5);
//   3. if T̂ <= τ, run IDX-DFS directly;
//   4. otherwise run the full-fledged optimizer (Alg. 5) and execute the
//      cheaper of IDX-DFS and IDX-JOIN.
// Run is the one plain-query executor of the whole system: called directly
// it builds uncached; the engines' scheduler workers (engine/scheduler.h)
// each keep one PathEnumerator and pass their shared IndexCache and the
// query's span, adding result-cache replay and index-cache reuse to the same
// pipeline. Keep one PathEnumerator per graph/session: it owns the reusable
// BFS buffers, so repeated queries avoid O(|V|) re-initialisation.
#ifndef PATHENUM_CORE_PATH_ENUM_H_
#define PATHENUM_CORE_PATH_ENUM_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/constraints.h"
#include "core/dfs_enumerator.h"
#include "core/estimator.h"
#include "core/index.h"
#include "core/join_enumerator.h"
#include "core/options.h"
#include "core/sink.h"
#include "graph/view.h"
#include "util/memory.h"

namespace pathenum {

class IndexCache;
namespace obs {
class QuerySpan;
}  // namespace obs

/// Grow-only scratch of the split queries one enumerator leads (DESIGN.md
/// §8): the split IDX-JOIN's unit and merge tables plus the per-participant
/// counters. Reused query after query, so the split steady state allocates
/// nothing (§5); concurrent split queries have distinct leaders and so
/// never share it.
struct SplitScratch {
  std::vector<uint32_t> starts;  // right-half units: the cut level set
  std::vector<uint32_t> left;    // left-half tuples
  /// Right-half tuples, one buffer per participant id.
  std::vector<std::vector<uint32_t>> right;
  /// Per start: its tuple range in right[range_worker[i]].
  std::vector<std::pair<size_t, size_t>> ranges;
  std::vector<uint32_t> range_worker;
  std::vector<uint8_t> is_key;    // slot-indexed join-key set
  std::vector<JoinGroup> groups;  // slot-indexed right-half groups
  std::vector<EnumCounters> counters;  // per participant id

  size_t Bytes() const;
};

/// Facade over index construction, the optimizer and both enumerators.
///
/// Owns every piece of per-query scratch (BFS fields, enumerator stacks and
/// mark arrays, join tuple tables, the bump arena for per-query-sized
/// tables, the split scratch), so repeated queries through one instance
/// reach a zero-allocation steady state. One instance serves one thread; the
/// scheduler keeps one per worker (see src/engine/).
class PathEnumerator {
 public:
  /// Accepts a plain `Graph` (implicit borrowing view, version 0) or a live
  /// `GraphView` snapshot.
  explicit PathEnumerator(const GraphView& view) : view_(view) {
    join_.SetArena(&arena_);
  }

  /// Points the enumerator at a different snapshot. Cheap: the epoch-stamped
  /// scratch survives (buffers resize lazily if |V| changed).
  void Rebind(const GraphView& view) { view_ = view; }

  /// Runs q and streams every hop-constrained s-t path into `sink`.
  /// `opts.method` selects IDX-DFS / IDX-JOIN / cost-based auto. Every
  /// per-run limit (deadline, result limit, sink stop) is re-armed from
  /// `opts`, so a limit hit by one query never leaks into the next one.
  /// The Figure-2 pipeline in one place: validate (throws
  /// std::logic_error), replay a recorded result set from `cache` when one
  /// is there, acquire the index (AcquireIndex), finalize an interrupted
  /// build, then estimate, optimize and enumerate (RunWithIndex) —
  /// recording a complete run back into the result cache. With `cache`
  /// null nothing is shared: the index is built for this query only. The
  /// cache may be shared across enumerators and threads (DESIGN.md §6).
  /// `span` (optional) gets the index-acquire/enumerate stage marks and the
  /// cache-outcome flags (DESIGN.md §12); the caller begins and finishes it.
  QueryStats Run(const Query& q, PathSink& sink, const EnumOptions& opts = {},
                 IndexCache* cache = nullptr, obs::QuerySpan* span = nullptr);

  /// Builds — or fetches from `cache`, when one is given — the per-query
  /// index of a plain, constrained or split (DESIGN.md §8) run. A cached
  /// acquisition coalesces with concurrent builders of the same key and
  /// publishes on a miss; `build_opts` must then come from BuildOptionsFor,
  /// so split and serial executions share cache fingerprints. Charges build
  /// stats to `stats` when it built and flags `stats.index_cache_hit` when
  /// it did not; always fills the index size fields.
  std::shared_ptr<const LightweightIndex> AcquireIndex(
      const Query& q, const IndexBuilder::Options& build_opts,
      IndexCache* cache, QueryStats& stats);

  /// The index-construction options Run would use for `q` under `opts` —
  /// exposed so the engine's cross-query cache keys (DESIGN.md §6) match
  /// exactly what Run builds.
  static IndexBuilder::Options BuildOptionsFor(const Query& q,
                                               const EnumOptions& opts);

  /// The method/cut decision of the Figure-2 pipeline for an already-built
  /// index. The single planning path shared by Run/RunWithIndex and the
  /// engine's intra-query split mode (DESIGN.md §8) — split and serial
  /// executions of one query must agree on the method, or the split/serial
  /// differential guarantees break. Fills the estimator/optimizer fields
  /// of `stats`. The index must satisfy BuildOptionsFor(query, opts).
  struct ExecutionPlan {
    Method method = Method::kDfs;
    uint32_t cut = 0;  // i* (join only)
  };
  static ExecutionPlan PlanExecution(const LightweightIndex& index,
                                     const EnumOptions& opts,
                                     QueryStats& stats);

  /// Runs the post-construction pipeline (estimate, optimize, enumerate) on
  /// an externally provided index for `index.query()`, skipping the build —
  /// Run's tail once it acquired the index. `index` must have
  /// been built over graph() with options at least as complete as
  /// BuildOptionsFor(index.query(), opts); it may be shared read-only with
  /// other threads. `stats.bfs_ms`/`index_ms` are 0 (nothing was built).
  QueryStats RunWithIndex(const LightweightIndex& index, PathSink& sink,
                          const EnumOptions& opts = {});

  /// Runs q under the Appendix-E constraint extensions. Constrained queries
  /// always use the (constrained) DFS enumerator; the edge predicate is
  /// pushed down into index construction (an uncached AcquireIndex: a
  /// predicate's identity cannot be fingerprinted).
  QueryStats RunConstrained(const Query& q, const PathConstraints& constraints,
                            PathSink& sink, const EnumOptions& opts = {});

  /// The base graph of the bound snapshot (identical to the full topology
  /// only when the view is overlay-free).
  const Graph& graph() const { return view_.base(); }

  /// The bound snapshot.
  const GraphView& view() const { return view_; }

  /// Builds and returns just the index (tooling/benchmark hook). Overlay-
  /// free views dispatch to the Build<Graph> instantiation so the static
  /// hot path keeps its branch-free adjacency loops (overlay views pay one
  /// predictable overlay check per access).
  LightweightIndex BuildIndex(const Query& q,
                              const IndexBuilder::Options& opts = {}) {
    return view_.has_overlay() ? builder_.Build(view_, q, opts)
                               : builder_.Build(view_.base(), q, opts);
  }

  /// Bytes of reusable scratch currently held (enumerator marks/buffers,
  /// the arena's capacity and the split scratch). Stable across repeated
  /// identical queries — the engine's no-allocation-in-steady-state tests
  /// assert exactly this.
  size_t ScratchBytes() const {
    return dfs_.ScratchBytes() + join_.ScratchBytes() +
           arena_.capacity_bytes() + split_scratch_.Bytes();
  }

  const BumpArena& arena() const { return arena_; }

  /// Enumerator handles for intra-query splitting (DESIGN.md §8): each
  /// branch/materialization/probe unit runs on the scratch of the worker
  /// that claimed it.
  DfsEnumerator& split_dfs() { return dfs_; }
  JoinEnumerator& split_join() { return join_; }

  /// Scratch of the split queries this enumerator leads.
  SplitScratch& split_scratch() { return split_scratch_; }

 private:
  GraphView view_;
  IndexBuilder builder_;
  DfsEnumerator dfs_;
  JoinEnumerator join_;
  BumpArena arena_;
  SplitScratch split_scratch_;
};

/// Folds a finished enumeration's `counters` and timings into `stats`:
/// `enumerate_ms` and `total_ms` (build included) as measured, and the
/// response time as the preprocessing time plus the time to the
/// response_target-th result (the whole query time if never reached). The
/// one timing finalizer of the plain, constrained and split execution paths.
void FinalizeRun(QueryStats& stats, const EnumCounters& counters,
                 double enumerate_ms, double total_ms);

/// Fills `stats` for a query whose index build was control-tripped
/// (deadline or cancel): no enumeration ran, zero results, the matching
/// terminal flag set, the build's timings charged and `total_ms` — the
/// query's wall time so far, build included — as total and response time.
void FinalizeInterruptedBuild(const LightweightIndex& index, double total_ms,
                              QueryStats& stats);

/// Calibrates the preliminary-estimator threshold τ for a graph following
/// §6.2: grow τ through powers of ten until the time IDX-DFS needs to find
/// τ results exceeds the median join-order-optimization time of the sample
/// queries. Returns the chosen τ.
double CalibrateTau(const Graph& g, const std::vector<Query>& sample_queries,
                    double max_tau = 1e8);

}  // namespace pathenum

#endif  // PATHENUM_CORE_PATH_ENUM_H_
