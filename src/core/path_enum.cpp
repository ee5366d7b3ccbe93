#include "core/path_enum.h"

#include <algorithm>

#include "engine/index_cache.h"
#include "obs/span.h"
#include "util/stats.h"
#include "util/timer.h"

namespace pathenum {

size_t SplitScratch::Bytes() const {
  size_t bytes = VectorBytes(starts) + VectorBytes(left) + VectorBytes(right) +
                 VectorBytes(ranges) + VectorBytes(range_worker) +
                 VectorBytes(is_key) + VectorBytes(groups) +
                 VectorBytes(counters);
  for (const std::vector<uint32_t>& buf : right) bytes += VectorBytes(buf);
  return bytes;
}

void FinalizeRun(QueryStats& stats, const EnumCounters& counters,
                 double enumerate_ms, double total_ms) {
  stats.counters = counters;
  stats.enumerate_ms = enumerate_ms;
  stats.total_ms = total_ms;
  // Response time = time from query start to the response_target-th result;
  // if the target was never reached the whole query time is reported.
  const double preprocessing = total_ms - enumerate_ms;
  stats.response_ms = counters.response_ms >= 0.0
                          ? preprocessing + counters.response_ms
                          : total_ms;
}

IndexBuilder::Options PathEnumerator::BuildOptionsFor(const Query& q,
                                                      const EnumOptions& opts) {
  IndexBuilder::Options build_opts;
  // IDX-DFS never consults the in-direction; skip it when forced to DFS.
  build_opts.build_in_direction = opts.method != Method::kDfs && q.hops >= 2;
  build_opts.collect_level_stats = opts.method == Method::kAuto;
  // Only the constraint extensions read edge ids; dropping the slab's
  // largest array keeps the unconstrained build lean (DESIGN.md §9).
  build_opts.build_edge_ids = false;
  // Thread the query's control into the build: each phase gets the query's
  // wall-clock budget from its own start (DESIGN.md §10), and the cancel
  // token covers the build exactly like the enumeration.
  build_opts.cancel = opts.cancel.flag();
  build_opts.deadline = Deadline::AfterMs(opts.time_limit_ms);
  return build_opts;
}

void FinalizeInterruptedBuild(const LightweightIndex& index, double total_ms,
                              QueryStats& stats) {
  EnumCounters counters;
  if (index.build_stats().interrupted_by_cancel) {
    counters.cancelled = true;
  } else {
    counters.timed_out = true;
  }
  stats.bfs_ms = index.build_stats().bfs_ms;
  stats.index_ms = index.build_stats().total_ms;
  FinalizeRun(stats, counters, 0.0, total_ms);
}

QueryStats PathEnumerator::Run(const Query& q, PathSink& sink,
                               const EnumOptions& opts, IndexCache* cache,
                               obs::QuerySpan* span) {
  // Validation throws before any cache interaction.
  ValidateQuery(view_, q);
  Timer total;

  // Cache interactions carry the bound snapshot's version: a hit must be
  // valid for exactly the snapshot this query observes, and a build/record
  // of a retired snapshot must not publish (DESIGN.md §7).
  const bool result_cache_on =
      cache != nullptr && cache->options().max_result_bytes > 0;
  const CacheKey result_key{q.source, q.target, q.hops,
                            ResultOptionsFingerprint(opts)};
  if (result_cache_on) {
    if (const auto cached = cache->GetResult(result_key, view_.version())) {
      if (span != nullptr) {
        span->SetIndexOutcome(false, /*result_cache_hit=*/true);
        span->Mark(obs::SpanStage::kIndexAcquire);
      }
      const QueryStats stats = ReplayCachedResult(*cached, sink, opts);
      if (span != nullptr) span->Mark(obs::SpanStage::kEnumerate);
      return stats;
    }
  }

  QueryStats acquired;
  const std::shared_ptr<const LightweightIndex> index =
      AcquireIndex(q, BuildOptionsFor(q, opts), cache, acquired);
  if (span != nullptr) {
    span->SetIndexOutcome(acquired.index_cache_hit, false);
    span->Mark(obs::SpanStage::kIndexAcquire);
  }
  if (index->build_stats().interrupted) {
    // This query's own deadline/cancel tripped mid-build (an interrupted
    // build is never published or handed to waiters, so it is always ours).
    QueryStats stats;
    FinalizeInterruptedBuild(*index, total.ElapsedMs(), stats);
    return stats;
  }

  QueryStats stats;
  if (result_cache_on) {
    RecordingSink recorder(sink, cache->options().max_result_entry_bytes);
    stats = RunWithIndex(*index, recorder, opts);
    // Only complete runs enter the result cache: a truncated path set
    // (limit, deadline, sink stop) must never be replayed as the answer.
    if (stats.counters.completed() && recorder.recording()) {
      cache->PutResult(result_key, recorder.Finish(stats), view_.version());
    }
  } else {
    stats = RunWithIndex(*index, sink, opts);
  }
  if (span != nullptr) span->Mark(obs::SpanStage::kEnumerate);
  // A build paid inside AcquireIndex is charged here (a hit's build
  // timings read 0).
  stats.index_cache_hit = acquired.index_cache_hit;
  stats.bfs_ms = acquired.bfs_ms;
  stats.index_ms = acquired.index_ms;
  stats.total_ms += acquired.index_ms;
  stats.response_ms += acquired.index_ms;
  return stats;
}

std::shared_ptr<const LightweightIndex> PathEnumerator::AcquireIndex(
    const Query& q, const IndexBuilder::Options& build_opts, IndexCache* cache,
    QueryStats& stats) {
  std::shared_ptr<const LightweightIndex> index;
  bool hit = false;
  if (cache != nullptr) {
    const CacheKey key{q.source, q.target, q.hops,
                       IndexOptionsFingerprint(build_opts)};
    index = cache->GetOrBuild(
        key, [&] { return BuildIndex(q, build_opts); }, &hit,
        view_.version());
  } else {
    index = std::make_shared<const LightweightIndex>(BuildIndex(q, build_opts));
  }
  stats.index_cache_hit = hit;
  if (!hit) {
    stats.bfs_ms = index->build_stats().bfs_ms;
    stats.index_ms = index->build_stats().total_ms;
  }
  stats.index_vertices = index->num_vertices();
  stats.index_edges = index->num_edges();
  stats.index_bytes = index->MemoryBytes();
  return index;
}

QueryStats PathEnumerator::RunWithIndex(const LightweightIndex& index,
                                        PathSink& sink,
                                        const EnumOptions& opts) {
  const Query& q = index.query();
  ValidateQuery(view_, q);
  const IndexBuilder::Options need = BuildOptionsFor(q, opts);
  PATHENUM_CHECK_MSG(!need.build_in_direction || index.has_in_direction(),
                     "cached index lacks the in-direction this method needs");
  PATHENUM_CHECK_MSG(!need.collect_level_stats || index.has_level_stats(),
                     "cached index lacks level stats required by kAuto");
  arena_.Reset();  // previous query's arena tables die here
  QueryStats stats;
  Timer total;
  stats.index_vertices = index.num_vertices();
  stats.index_edges = index.num_edges();
  stats.index_bytes = index.MemoryBytes();

  const ExecutionPlan plan = PlanExecution(index, opts, stats);
  stats.method = plan.method;
  stats.cut_position = plan.cut;

  Timer enum_timer;
  EnumCounters counters;
  if (plan.method == Method::kJoin) {
    counters = join_.Run(index, plan.cut, sink, opts);
  } else {
    counters = dfs_.Run(index, sink, opts);
  }
  FinalizeRun(stats, counters, enum_timer.ElapsedMs(), total.ElapsedMs());
  return stats;
}

PathEnumerator::ExecutionPlan PathEnumerator::PlanExecution(
    const LightweightIndex& index, const EnumOptions& opts,
    QueryStats& stats) {
  const Query& q = index.query();
  ExecutionPlan plan;
  Method chosen = opts.method;
  if (q.hops < 2) chosen = Method::kDfs;  // no proper cut exists

  if (chosen == Method::kAuto) {
    // Step 2 of Fig. 2: the O(k) preliminary estimate decides whether the
    // full optimizer is worth running at all.
    stats.preliminary_estimate = EstimateSearchSpace(index);
    if (opts.use_preliminary_estimator &&
        stats.preliminary_estimate <= opts.tau) {
      chosen = Method::kDfs;
    } else {
      Timer opt_timer;
      const JoinPlan join_plan = OptimizeJoinOrder(index);
      stats.optimize_ms = opt_timer.ElapsedMs();
      stats.t_dfs_cost = join_plan.t_dfs;
      stats.t_join_cost = join_plan.t_join;
      if (join_plan.PreferJoin()) {
        chosen = Method::kJoin;
        plan.cut = join_plan.cut;
      } else {
        chosen = Method::kDfs;
      }
    }
  } else if (chosen == Method::kJoin) {
    // Forced IDX-JOIN still needs Alg. 5 for the cut position.
    Timer opt_timer;
    const JoinPlan join_plan = OptimizeJoinOrder(index);
    stats.optimize_ms = opt_timer.ElapsedMs();
    stats.t_dfs_cost = join_plan.t_dfs;
    stats.t_join_cost = join_plan.t_join;
    plan.cut =
        join_plan.cut == 0 ? std::max<uint32_t>(1, q.hops / 2) : join_plan.cut;
  }
  plan.method = chosen;
  return plan;
}

QueryStats PathEnumerator::RunConstrained(const Query& q,
                                          const PathConstraints& constraints,
                                          PathSink& sink,
                                          const EnumOptions& opts) {
  ValidateQuery(view_, q);
  // Constraints read edge weights/labels through stable edge ids, which an
  // overlay view cannot provide — constrained traffic needs a compacted
  // snapshot (see graph/view.h).
  PATHENUM_CHECK_MSG(!view_.has_overlay(),
                     "constrained queries require an overlay-free snapshot");
  arena_.Reset();
  QueryStats stats;
  Timer total;
  // Constrained queries default to the DFS enumerator (the cost model does
  // not see constraint selectivity); a forced kJoin runs the Appendix-E
  // join-side extension, which requires `init` to be an identity of
  // `combine`.
  const bool use_join = opts.method == Method::kJoin && q.hops >= 2;

  IndexBuilder::Options build_opts;
  build_opts.filter = constraints.edge_filter;
  build_opts.build_in_direction = use_join;
  build_opts.collect_level_stats = false;
  build_opts.build_edge_ids = true;  // the constrained enumerators read them
  build_opts.cancel = opts.cancel.flag();
  build_opts.deadline = Deadline::AfterMs(opts.time_limit_ms);
  // Overlay-free is asserted above, so this is always Build<Graph>.
  const std::shared_ptr<const LightweightIndex> acquired =
      AcquireIndex(q, build_opts, /*cache=*/nullptr, stats);
  const LightweightIndex& index = *acquired;
  if (index.build_stats().interrupted) {
    FinalizeInterruptedBuild(index, total.ElapsedMs(), stats);
    return stats;
  }
  stats.method = use_join ? Method::kJoin : Method::kDfs;

  Timer enum_timer;
  EnumCounters counters;
  if (use_join) {
    Timer opt_timer;
    const JoinPlan plan = OptimizeJoinOrder(index);
    stats.optimize_ms = opt_timer.ElapsedMs();
    stats.t_dfs_cost = plan.t_dfs;
    stats.t_join_cost = plan.t_join;
    stats.cut_position =
        plan.cut == 0 ? std::max<uint32_t>(1, q.hops / 2) : plan.cut;
    enum_timer.Reset();
    ConstrainedJoinEnumerator join(view_.base(), index, constraints);
    counters = join.Run(stats.cut_position, sink, opts);
  } else if (constraints.HasSearchState()) {
    ConstrainedDfsEnumerator dfs(view_.base(), index, constraints);
    counters = dfs.Run(sink, opts);
  } else {
    // Predicate-only: plain DFS on the filtered index, pooled scratch.
    counters = dfs_.Run(index, sink, opts);
  }
  FinalizeRun(stats, counters, enum_timer.ElapsedMs(), total.ElapsedMs());
  return stats;
}

double CalibrateTau(const Graph& g, const std::vector<Query>& sample_queries,
                    double max_tau) {
  // One builder for the whole sample: its O(|V|) BFS fields are
  // allocated once and epoch-reset per query.
  IndexBuilder builder;
  std::vector<double> optimize_times;
  std::vector<double> rates;  // results per millisecond
  for (const Query& q : sample_queries) {
    LightweightIndex index = builder.Build(g, q, IndexBuilder::Options{});

    Timer opt_timer;
    const JoinPlan plan = OptimizeJoinOrder(index);
    (void)plan;
    optimize_times.push_back(opt_timer.ElapsedMs());

    CountingSink sink;
    EnumOptions run_opts;
    run_opts.result_limit = 100000;
    run_opts.time_limit_ms = 1000.0;
    DfsEnumerator dfs(index);
    Timer run_timer;
    const EnumCounters counters = dfs.Run(sink, run_opts);
    const double ms = std::max(run_timer.ElapsedMs(), 1e-3);
    if (counters.num_results > 0) {
      rates.push_back(static_cast<double>(counters.num_results) / ms);
    }
  }
  if (optimize_times.empty() || rates.empty()) return 1e5;
  const double median_opt = PercentileInPlace(optimize_times, 50.0);
  const double median_rate = PercentileInPlace(rates, 50.0);
  // Smallest power of ten whose enumeration time exceeds the optimization
  // time for the typical query (§6.2's procedure).
  for (double tau = 10.0; tau <= max_tau; tau *= 10.0) {
    if (tau / median_rate > median_opt) return tau;
  }
  return max_tau;
}

}  // namespace pathenum
