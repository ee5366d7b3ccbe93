// Batch-engine throughput harness (extension of the paper's system; no
// figure counterpart): queries/sec of the pooled QueryEngine at several
// worker counts, cold contexts vs. warm, against the naive
// loop-over-PathEnumerator::Run baselines — plus the cross-query cache
// configurations of DESIGN.md §6: a Zipfian skewed workload (hot (s, t, k)
// pairs repeat, as service traffic does) with the cache off vs. on, and a
// uniform all-distinct workload with the cache on to price the overhead of
// a miss-dominated batch. Writes a machine-readable baseline so later PRs
// have a perf trajectory to compare against.
//
// Environment (on top of the bench_util knobs):
//   PATHENUM_BENCH_WORKERS        comma list of worker counts (default "1,4,8")
//   PATHENUM_BENCH_REPS           warm measurement repetitions (default 3)
//   PATHENUM_BENCH_LIMIT          per-query result limit       (default 20000)
//   PATHENUM_BENCH_JSON           output path ("" disables; default
//                                 "BENCH_throughput.json")
//   PATHENUM_BENCH_SKEW_QUERIES   skewed-workload batch size    (default 64)
//   PATHENUM_BENCH_SKEW_DISTINCT  distinct hot keys in the skew (default 8)
//   PATHENUM_BENCH_SKEW_HOPS      hop bound for the skewed set  (default 4,
//                                 small enough to enumerate completely so
//                                 runs are result-cacheable)
//   PATHENUM_BENCH_SKEW_LIMIT     result limit for the skewed set
//                                 (default 10000000: effectively complete)
//   PATHENUM_BENCH_UPDATE_ROUNDS  update-heavy epochs               (default 6)
//   PATHENUM_BENCH_UPDATE_EDGES   edge churn per epoch              (default 8)
//   PATHENUM_BENCH_HEAVY_QUERIES  split_heavy batch size            (default 3)
//   PATHENUM_BENCH_HEAVY_HOPS     split_heavy hop bound             (default 6)
//   PATHENUM_BENCH_HEAVY_LIMIT    split_heavy per-query result limit
//                                 (default 200000)
//   PATHENUM_BENCH_UNSAT_QUERIES  unsat_flood batch size            (default
//                                 1024, all cross-component → unsatisfiable)
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_util.h"
#include "core/path_enum.h"
#include "engine/query_engine.h"
#include "live/impact.h"
#include "live/live_oracle.h"
#include "live/snapshot.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace pathenum;

struct Measurement {
  std::string name;
  uint32_t workers = 0;         // requested pool size
  uint32_t active_workers = 0;  // workers that actually ran (engine clamp)
  bool warm = false;
  double wall_ms = 0.0;
  double qps = 0.0;             // from this config's own query count
  size_t num_queries = 0;       // the qps divisor, recorded per row
  /// True when this row ran naive_sequential's exact workload (same query
  /// set, same limits): only those rows get a speedup_vs_naive — dividing
  /// qps across different workloads (skew/update/split run different query
  /// sets with different limits) is meaningless.
  bool comparable_to_naive = false;
  uint64_t total_results = 0;
  bool has_cache = false;
  IndexCacheStats cache;  // last measured rep's batch delta
};

Measurement Measure(const std::string& name, uint32_t workers, bool warm,
                    size_t num_queries, double wall_ms,
                    uint64_t total_results) {
  Measurement m;
  m.name = name;
  m.workers = workers;
  m.active_workers = workers;
  m.warm = warm;
  m.wall_ms = wall_ms;
  m.num_queries = num_queries;
  m.qps = wall_ms > 0.0 ? static_cast<double>(num_queries) / (wall_ms / 1e3)
                        : 0.0;
  m.total_results = total_results;
  return m;
}

/// The pre-engine service shape: a fresh PathEnumerator (cold scratch,
/// cold BFS fields) for every query, sequentially.
Measurement RunNaive(const Graph& g, const std::vector<Query>& queries,
                     const EnumOptions& opts) {
  Timer wall;
  uint64_t results = 0;
  for (const Query& q : queries) {
    PathEnumerator pe(g);
    CountingSink sink;
    pe.Run(q, sink, opts);
    results += sink.count();
  }
  Measurement m = Measure("naive_sequential", 1, false, queries.size(),
                          wall.ElapsedMs(), results);
  m.comparable_to_naive = true;
  return m;
}

/// One reused PathEnumerator, sequential loop (scratch warm, no pool).
Measurement RunWarmSequential(const Graph& g,
                              const std::vector<Query>& queries,
                              const EnumOptions& opts) {
  PathEnumerator pe(g);
  for (const Query& q : queries) {  // warm-up pass
    CountingSink sink;
    pe.Run(q, sink, opts);
  }
  Timer wall;
  uint64_t results = 0;
  for (const Query& q : queries) {
    CountingSink sink;
    pe.Run(q, sink, opts);
    results += sink.count();
  }
  Measurement m = Measure("warm_sequential", 1, true, queries.size(),
                          wall.ElapsedMs(), results);
  m.comparable_to_naive = true;
  return m;
}

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? static_cast<uint64_t>(std::atoll(v)) : fallback;
}

/// Samples `total` queries from `pool` with Zipf(1.0) rank weights —
/// rank r is picked proportionally to 1/(r+1) — modelling the hot-key
/// repetition of real service traffic. Deterministic.
std::vector<Query> MakeSkewedWorkload(const std::vector<Query>& pool,
                                      size_t total) {
  std::vector<double> cdf;
  cdf.reserve(pool.size());
  double c = 0.0;
  for (size_t r = 0; r < pool.size(); ++r) {
    c += 1.0 / static_cast<double>(r + 1);
    cdf.push_back(c);
  }
  Rng rng(123);
  std::vector<Query> out;
  out.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    const double u = rng.NextDouble() * c;
    const size_t idx = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    out.push_back(pool[std::min(idx, pool.size() - 1)]);
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main() {
  const auto env = bench::BenchEnv::FromEnv();
  bench::PrintBanner("Batch engine throughput",
                     "extension (no paper counterpart)", env);

  const char* workers_env = std::getenv("PATHENUM_BENCH_WORKERS");
  std::vector<uint32_t> worker_counts;
  {
    std::istringstream ss(workers_env != nullptr ? workers_env : "1,4,8");
    std::string item;
    while (std::getline(ss, item, ',')) {
      const long w = std::atol(item.c_str());
      if (w > 0) worker_counts.push_back(static_cast<uint32_t>(w));
    }
  }
  const int reps = static_cast<int>(EnvU64("PATHENUM_BENCH_REPS", 3));
  const uint64_t result_limit = EnvU64("PATHENUM_BENCH_LIMIT", 20000);
  const size_t skew_total = EnvU64("PATHENUM_BENCH_SKEW_QUERIES", 64);
  const uint32_t skew_distinct =
      static_cast<uint32_t>(EnvU64("PATHENUM_BENCH_SKEW_DISTINCT", 8));
  const uint32_t skew_hops =
      static_cast<uint32_t>(EnvU64("PATHENUM_BENCH_SKEW_HOPS", 4));
  const uint64_t skew_limit = EnvU64("PATHENUM_BENCH_SKEW_LIMIT", 10000000);

  const std::string dataset = env.datasets.empty() ? "ep" : env.datasets[0];
  Graph g;
  try {
    g = bench::CachedDataset(dataset, env.scale);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  const std::vector<Query> queries = bench::MakeQueries(g, env, env.hops);
  if (queries.empty()) {
    std::cerr << "no queries generated; dataset too small for the setting\n";
    return 1;
  }
  EnumOptions opts = bench::MakeOptions(env);
  opts.result_limit = result_limit;

  std::vector<Measurement> measurements;
  measurements.push_back(RunNaive(g, queries, opts));
  measurements.push_back(RunWarmSequential(g, queries, opts));

  for (const uint32_t workers : worker_counts) {
    QueryEngine engine(g, {.num_workers = workers});
    BatchOptions batch;
    batch.query = opts;

    // Cold: the engine's very first batch (contexts at initial capacity).
    const BatchResult cold = engine.CountBatch(queries, batch);
    Measurement cold_m = Measure("engine_cold", workers, false,
                                 queries.size(), cold.wall_ms,
                                 cold.TotalResults());
    cold_m.active_workers = cold.workers;  // post-clamp: what actually ran
    cold_m.comparable_to_naive = true;
    measurements.push_back(cold_m);

    // Warm: steady state, averaged over reps.
    double wall_sum = 0.0;
    uint64_t results = 0;
    uint32_t active = cold.workers;
    for (int r = 0; r < reps; ++r) {
      const BatchResult warm = engine.CountBatch(queries, batch);
      wall_sum += warm.wall_ms;
      results = warm.TotalResults();
      active = warm.workers;
    }
    Measurement warm_m = Measure("engine_warm", workers, true, queries.size(),
                                 wall_sum / reps, results);
    warm_m.active_workers = active;
    warm_m.comparable_to_naive = true;
    measurements.push_back(warm_m);
    const auto stats = engine.Stats();
    std::printf("  [workers=%u] scratch %.1f KiB across contexts, %llu "
                "queries served\n",
                workers, stats.scratch_bytes / 1024.0,
                static_cast<unsigned long long>(stats.queries_run));
  }

  // --- Cross-query cache configurations (DESIGN.md §6). ------------------
  const uint32_t cw = worker_counts.front();

  // Uniform all-distinct workload with the cache enabled but invalidated
  // between reps: every batch is miss-dominated, so this prices the cache's
  // bookkeeping overhead against the cache-off engine_warm config above.
  {
    QueryEngine engine(g, {.num_workers = cw, .enable_cache = true});
    BatchOptions batch;
    batch.query = opts;
    engine.CountBatch(queries, batch);  // warm scratch
    double wall_sum = 0.0;
    uint64_t results = 0;
    IndexCacheStats last{};
    uint32_t active = cw;
    for (int r = 0; r < reps; ++r) {
      engine.InvalidateCaches();
      const BatchResult b = engine.CountBatch(queries, batch);
      wall_sum += b.wall_ms;
      results = b.TotalResults();
      last = b.cache;
      active = b.workers;
    }
    Measurement m = Measure("uniform_cache_on", cw, true, queries.size(),
                            wall_sum / reps, results);
    m.active_workers = active;
    m.comparable_to_naive = true;
    m.has_cache = true;
    m.cache = last;
    measurements.push_back(m);
  }

  // Skewed workload: hot keys repeat (Zipf over a small distinct pool).
  bench::BenchEnv skew_env = env;
  skew_env.num_queries = skew_distinct;
  std::vector<Query> skew_pool =
      bench::MakeQueries(g, skew_env, skew_hops, /*seed=*/99);
  if (skew_pool.empty()) skew_pool = queries;
  const std::vector<Query> skewed = MakeSkewedWorkload(skew_pool, skew_total);
  EnumOptions skew_opts = opts;
  skew_opts.result_limit = skew_limit;

  {
    QueryEngine engine(g, {.num_workers = cw});
    BatchOptions batch;
    batch.query = skew_opts;
    batch.use_cache = false;
    batch.dedup_identical = false;  // the pre-cache engine, for comparison
    engine.CountBatch(skewed, batch);  // warm scratch
    double wall_sum = 0.0;
    uint64_t results = 0;
    uint32_t active = cw;
    for (int r = 0; r < reps; ++r) {
      const BatchResult b = engine.CountBatch(skewed, batch);
      wall_sum += b.wall_ms;
      results = b.TotalResults();
      active = b.workers;
    }
    Measurement m = Measure("skew_cache_off", cw, true, skewed.size(),
                            wall_sum / reps, results);
    m.active_workers = active;
    measurements.push_back(m);
  }
  {
    QueryEngine engine(g, {.num_workers = cw, .enable_cache = true});
    BatchOptions batch;
    batch.query = skew_opts;
    engine.CountBatch(skewed, batch);  // warm scratch + populate the cache
    double wall_sum = 0.0;
    uint64_t results = 0;
    IndexCacheStats last{};
    uint32_t active = cw;
    for (int r = 0; r < reps; ++r) {
      const BatchResult b = engine.CountBatch(skewed, batch);
      wall_sum += b.wall_ms;
      results = b.TotalResults();
      last = b.cache;
      active = b.workers;
    }
    Measurement m = Measure("skew_cache_on", cw, true, skewed.size(),
                            wall_sum / reps, results);
    m.active_workers = active;
    m.has_cache = true;
    m.cache = last;
    measurements.push_back(m);
  }

  // --- Update-heavy live workload (DESIGN.md §7). ------------------------
  // The skewed workload re-runs after every update epoch; `incremental`
  // invalidates the cache with the epoch's UpdateImpact (only affected keys
  // evicted), the baseline clears everything per epoch. Same deltas, same
  // queries — the hit-rate delta is what incremental invalidation is worth.
  const int update_rounds =
      static_cast<int>(EnvU64("PATHENUM_BENCH_UPDATE_ROUNDS", 6));
  const int update_edges =
      static_cast<int>(EnvU64("PATHENUM_BENCH_UPDATE_EDGES", 8));
  // One shared base for both configs: SnapshotManager holds the graph by
  // shared_ptr, so neither config re-copies the multi-million-edge CSR.
  const auto live_base = std::make_shared<const Graph>(g);
  const auto run_update_config = [&](bool incremental) -> Measurement {
    QueryEngine engine(g, {.num_workers = cw, .enable_cache = true});
    SnapshotOptions sopts;
    sopts.max_hops = skew_hops;
    SnapshotManager snapshots(live_base, sopts);
    BatchOptions batch;
    batch.query = skew_opts;

    std::vector<CountingSink> sinks(skewed.size());
    std::vector<PathSink*> sink_ptrs(skewed.size());
    for (size_t i = 0; i < skewed.size(); ++i) sink_ptrs[i] = &sinks[i];

    // Warm pass on the initial snapshot populates the cache.
    engine.RunBatch(*snapshots.Current(), skewed, sink_ptrs, batch);

    const IndexCacheStats before = engine.cache()->Stats();
    Rng rng(2024);
    const VertexId n = g.num_vertices();
    std::vector<std::pair<VertexId, VertexId>> churn;  // for later deletion
    double wall_sum = 0.0;
    uint64_t results = 0;
    uint32_t active = cw;
    for (int round = 0; round < update_rounds; ++round) {
      GraphDelta delta;
      for (int e = 0; e < update_edges; ++e) {
        const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
        const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        delta.Insert(u, v);
        churn.emplace_back(u, v);
      }
      // Delete half of the oldest churn so the overlay stays bounded.
      while (churn.size() > static_cast<size_t>(update_edges) * 2) {
        delta.Delete(churn.front().first, churn.front().second);
        churn.erase(churn.begin());
      }
      const SnapshotManager::Epoch epoch = snapshots.Prepare(delta);
      const UpdateImpact& impact = epoch.impact;
      engine.cache()->BeginEpoch(
          epoch.snapshot->version(),
          incremental
              ? std::function<bool(VertexId, VertexId, uint32_t)>(
                    [&impact](VertexId s, VertexId t, uint32_t k) {
                      return impact.AffectsQuery(s, t, k);
                    })
              : std::function<bool(VertexId, VertexId, uint32_t)>(
                    [](VertexId, VertexId, uint32_t) { return true; }));
      snapshots.Publish(epoch);
      const BatchResult b =
          engine.RunBatch(*epoch.snapshot, skewed, sink_ptrs, batch);
      wall_sum += b.wall_ms;
      results += b.TotalResults();
      active = b.workers;
    }
    Measurement m = Measure(
        incremental ? "update_incremental" : "update_fullclear", cw, true,
        skewed.size() * static_cast<size_t>(update_rounds), wall_sum, results);
    m.active_workers = active;
    m.has_cache = true;
    m.cache = engine.cache()->Stats() - before;
    return m;
  };
  measurements.push_back(run_update_config(/*incremental=*/false));
  measurements.push_back(run_update_config(/*incremental=*/true));

  // --- Intra-query splitting on heavy queries (DESIGN.md §8). ------------
  // A few heavy queries (larger hop bound, generous limit) run through the
  // engine once per query per worker (split_off) and once spread across
  // every worker per query (split_on). On a multi-core host split_on should
  // cut the heavy-query latency by roughly the core count's share; on a
  // single-core host the two should tie (the JSON records
  // hardware_concurrency for exactly this reason).
  const size_t heavy_count = EnvU64("PATHENUM_BENCH_HEAVY_QUERIES", 3);
  const uint32_t heavy_hops =
      static_cast<uint32_t>(EnvU64("PATHENUM_BENCH_HEAVY_HOPS", 6));
  const uint64_t heavy_limit = EnvU64("PATHENUM_BENCH_HEAVY_LIMIT", 200000);
  const uint32_t split_workers = worker_counts.back();
  double split_off_ms = 0.0, split_on_ms = 0.0;
  {
    bench::BenchEnv heavy_env = env;
    heavy_env.num_queries = heavy_count;
    std::vector<Query> heavy =
        bench::MakeQueries(g, heavy_env, heavy_hops, /*seed=*/7);
    if (heavy.empty()) heavy = queries;
    EnumOptions heavy_opts = opts;
    heavy_opts.result_limit = heavy_limit;

    // split_off is the single-query latency baseline: one warm enumerator,
    // one query at a time (a heavy query's latency, not batch throughput —
    // inter-query parallelism cannot help the user waiting on one query).
    QueryEngine engine(g, {.num_workers = split_workers});
    BatchOptions batch;
    batch.query = heavy_opts;
    engine.CountBatch(heavy, batch);  // warm scratch
    PathEnumerator warm(g);
    for (const Query& q : heavy) {  // warm the sequential scratch too
      CountingSink sink;
      warm.Run(q, sink, heavy_opts);
    }
    double off_sum = 0.0, on_sum = 0.0;
    uint64_t off_results = 0, on_results = 0;
    uint32_t on_active = split_workers;
    for (int r = 0; r < reps; ++r) {
      Timer off_timer;
      off_results = 0;
      for (const Query& q : heavy) {
        CountingSink sink;
        warm.Run(q, sink, heavy_opts);
        off_results += sink.count();
      }
      off_sum += off_timer.ElapsedMs();
      batch.split_branches = true;
      const BatchResult on = engine.CountBatch(heavy, batch);
      on_sum += on.wall_ms;
      on_results = on.TotalResults();
      on_active = on.workers;
    }
    split_off_ms = off_sum / reps;
    split_on_ms = on_sum / reps;
    measurements.push_back(Measure("split_heavy_off", 1, true, heavy.size(),
                                   split_off_ms, off_results));
    Measurement on_m = Measure("split_heavy_on", split_workers, true,
                               heavy.size(), split_on_ms, on_results);
    on_m.active_workers = on_active;
    measurements.push_back(on_m);
  }

  // --- Unsatisfiable-query flood (DESIGN.md §13). ------------------------
  // Production fraud/link-prediction traffic floods the service with
  // queries that have no answer. Oracle off, every one pays a per-query
  // index build that explores its whole component before concluding "zero
  // paths"; with the standing live oracle attached, the engine rejects it
  // in O(1) label lookups before any work starts. The flood is
  // cross-component on a deliberately disconnected graph, measured after a
  // live update stream has pushed the oracle through correction and
  // re-label epochs, and every oracle-on outcome is differentially checked
  // against the oracle-off result count: a wrong rejection is reported as
  // its own JSON field (must stay 0), not folded into an average.
  const size_t unsat_count = EnvU64("PATHENUM_BENCH_UNSAT_QUERIES", 1024);
  double unsat_off_ms = 0.0, unsat_on_ms = 0.0;
  double unsat_reject_rate = 0.0;
  uint64_t unsat_wrong_rejections = 0;
  size_t unsat_mixed_count = 0;
  {
    // Eight 64-vertex random components, no cross edges: any
    // cross-component query is unsatisfiable at every hop bound.
    constexpr VertexId kComponents = 8;
    constexpr VertexId kCompVerts = 8192;
    Rng grng(417);
    std::vector<std::pair<VertexId, VertexId>> comp_edges;
    for (VertexId c = 0; c < kComponents; ++c) {
      const VertexId base_v = c * kCompVerts;
      for (VertexId i = 1; i < kCompVerts; ++i) {  // spanning path
        comp_edges.emplace_back(base_v + i - 1, base_v + i);
      }
      for (VertexId e = 0; e < kCompVerts / 4; ++e) {  // random intra edges
        comp_edges.emplace_back(
            base_v + static_cast<VertexId>(grng.NextBounded(kCompVerts)),
            base_v + static_cast<VertexId>(grng.NextBounded(kCompVerts)));
      }
    }
    const auto flood_base = std::make_shared<const Graph>(
        Graph::FromEdges(kComponents * kCompVerts, comp_edges));

    // The timed flood is 100% unsatisfiable distinct pairs; the
    // differential batch appends a satisfiable intra-component tail so the
    // check is two-sided (rejects must be right AND sat queries must not
    // be rejected).
    Rng qrng(91);
    std::vector<Query> flood;
    flood.reserve(unsat_count);
    for (size_t i = 0; i < unsat_count; ++i) {
      const VertexId cs = static_cast<VertexId>(qrng.NextBounded(kComponents));
      VertexId ct = static_cast<VertexId>(qrng.NextBounded(kComponents));
      if (ct == cs) ct = (ct + 1) % kComponents;
      flood.push_back(
          Query{cs * kCompVerts +
                    static_cast<VertexId>(qrng.NextBounded(kCompVerts)),
                ct * kCompVerts +
                    static_cast<VertexId>(qrng.NextBounded(kCompVerts)),
                6});
    }
    std::vector<Query> mixed = flood;
    for (VertexId c = 0; c < kComponents; ++c) {
      mixed.push_back(Query{c * kCompVerts, c * kCompVerts + 4, 6});
    }
    unsat_mixed_count = mixed.size();

    // Live stream: intra-component churn drives the oracle through
    // correction epochs and synchronous re-label folds before measuring.
    SnapshotOptions sopts;
    sopts.max_hops = 6;
    SnapshotManager snapshots(flood_base, sopts);
    LiveOracleOptions oracle_opts;
    oracle_opts.background_relabel = false;
    oracle_opts.relabel_budget = 6;
    LiveDistanceOracle oracle(snapshots.Current()->base(), oracle_opts);
    snapshots.AttachOracle(&oracle);
    Rng crng(58);
    for (int e = 0; e < 4; ++e) {
      GraphDelta delta;
      for (int i = 0; i < 8; ++i) {
        const VertexId comp =
            static_cast<VertexId>(crng.NextBounded(kComponents)) * kCompVerts;
        const VertexId u =
            comp + static_cast<VertexId>(crng.NextBounded(kCompVerts));
        const VertexId v =
            comp + static_cast<VertexId>(crng.NextBounded(kCompVerts));
        if (i % 3 == 0) {
          delta.Delete(u, v);
        } else {
          delta.Insert(u, v);
        }
      }
      snapshots.Apply(delta);
    }
    const SnapshotManager::Published pub = snapshots.CurrentPublished();

    QueryEngine off_engine(*snapshots.Current(), {.num_workers = cw});
    QueryEngine on_engine(*snapshots.Current(), {.num_workers = cw});
    on_engine.SetLiveOracle(&oracle);
    BatchOptions flood_batch;
    flood_batch.query = opts;

    const auto run_flood = [&](QueryEngine& engine,
                               std::span<const Query> qs) -> BatchResult {
      std::vector<CountingSink> sinks(qs.size());
      std::vector<PathSink*> ptrs(qs.size());
      for (size_t i = 0; i < qs.size(); ++i) ptrs[i] = &sinks[i];
      return engine.RunBatch(*pub.snapshot, qs, ptrs, flood_batch);
    };

    // Differential pass (untimed, mixed workload): every oracle-on
    // rejection must have an oracle-off count of zero, and the counts must
    // agree everywhere.
    const BatchResult diff_on = run_flood(on_engine, mixed);
    const BatchResult diff_off = run_flood(off_engine, mixed);
    uint64_t rejected = 0;
    for (size_t i = 0; i < mixed.size(); ++i) {
      if (diff_on.states[i] == QueryState::kUnsatisfiable) {
        ++rejected;
        if (diff_off.stats[i].counters.num_results != 0) {
          ++unsat_wrong_rejections;
        }
      } else if (diff_on.stats[i].counters.num_results !=
                 diff_off.stats[i].counters.num_results) {
        ++unsat_wrong_rejections;  // divergence is as bad as a bad reject
      }
    }
    unsat_reject_rate =
        mixed.empty() ? 0.0
                      : static_cast<double>(rejected) /
                            static_cast<double>(mixed.size());

    // Timed flood: all-unsatisfiable, reps averaged.
    double off_sum = 0.0, on_sum = 0.0;
    uint64_t off_results = 0, on_results = 0;
    uint32_t off_active = cw, on_active = cw;
    for (int r = 0; r < reps; ++r) {
      const BatchResult off_b = run_flood(off_engine, flood);
      off_sum += off_b.wall_ms;
      off_results = off_b.TotalResults();
      off_active = off_b.workers;
      const BatchResult on_b = run_flood(on_engine, flood);
      on_sum += on_b.wall_ms;
      on_results = on_b.TotalResults();
      on_active = on_b.workers;
    }
    unsat_off_ms = off_sum / reps;
    unsat_on_ms = on_sum / reps;
    Measurement off_m = Measure("unsat_flood_off", cw, true, flood.size(),
                                unsat_off_ms, off_results);
    off_m.active_workers = off_active;
    Measurement on_m = Measure("unsat_flood_on", cw, true, flood.size(),
                               unsat_on_ms, on_results);
    on_m.active_workers = on_active;
    measurements.push_back(off_m);
    measurements.push_back(on_m);
  }

  const double naive_qps = measurements[0].qps;
  std::printf("\n%-18s %-10s %-8s %-6s %12s %12s %14s\n", "config",
              "workers", "queries", "warm", "wall ms", "queries/s",
              "vs naive");
  for (const Measurement& m : measurements) {
    char workers_buf[32];
    std::snprintf(workers_buf, sizeof(workers_buf), "%u(%u)", m.workers,
                  m.active_workers);
    // The speedup column only means something against the same workload;
    // skew/update/split rows run different query sets and print "-".
    char speedup_buf[32] = "-";
    if (m.comparable_to_naive && naive_qps > 0.0) {
      std::snprintf(speedup_buf, sizeof(speedup_buf), "%.2fx",
                    m.qps / naive_qps);
    }
    std::printf("%-18s %-10s %-8zu %-6s %12.2f %12.1f %14s\n", m.name.c_str(),
                workers_buf, m.num_queries, m.warm ? "yes" : "no", m.wall_ms,
                m.qps, speedup_buf);
  }

  double skew_off_qps = 0.0, skew_on_qps = 0.0;
  for (const Measurement& m : measurements) {
    if (m.name == "skew_cache_off") skew_off_qps = m.qps;
    if (m.name == "skew_cache_on") skew_on_qps = m.qps;
    if (m.has_cache) {
      std::printf("  [%s] idx hit/miss %llu/%llu, result hit %llu, "
                  "bytes %.1f KiB idx + %.1f KiB results\n",
                  m.name.c_str(),
                  static_cast<unsigned long long>(m.cache.index_hits),
                  static_cast<unsigned long long>(m.cache.index_misses),
                  static_cast<unsigned long long>(m.cache.result_hits),
                  m.cache.index_bytes / 1024.0,
                  m.cache.result_bytes / 1024.0);
    }
  }
  if (skew_off_qps > 0.0) {
    std::printf("  [skew] cache speedup: %.2fx (%zu queries, %u distinct)\n",
                skew_on_qps / skew_off_qps, skewed.size(),
                static_cast<uint32_t>(skew_pool.size()));
  }

  // Hit rate over every cache interaction of the update-heavy configs
  // (result replays + index reuses vs. misses).
  const auto hit_rate = [](const IndexCacheStats& c) {
    const double hits = static_cast<double>(c.result_hits + c.index_hits);
    const double total = hits + static_cast<double>(c.index_misses);
    return total > 0.0 ? hits / total : 0.0;
  };
  double update_full_rate = 0.0, update_incr_rate = 0.0;
  for (const Measurement& m : measurements) {
    if (m.name == "update_fullclear") update_full_rate = hit_rate(m.cache);
    if (m.name == "update_incremental") update_incr_rate = hit_rate(m.cache);
  }
  std::printf("  [update] hit rate under churn: incremental %.1f%% vs "
              "full-clear %.1f%% (delta %.1f pts, %d rounds x %d edges)\n",
              update_incr_rate * 100.0, update_full_rate * 100.0,
              (update_incr_rate - update_full_rate) * 100.0, update_rounds,
              update_edges);

  const double split_speedup =
      split_on_ms > 0.0 ? split_off_ms / split_on_ms : 0.0;
  std::printf("  [split_heavy] per-query latency %.2f ms serial vs %.2f ms "
              "split at %u workers (%.2fx; 1.0x expected on a single core)\n",
              split_off_ms / std::max<size_t>(heavy_count, 1),
              split_on_ms / std::max<size_t>(heavy_count, 1), split_workers,
              split_speedup);

  const double unsat_speedup =
      unsat_on_ms > 0.0 ? unsat_off_ms / unsat_on_ms : 0.0;
  const double unsat_on_ns =
      unsat_count > 0 ? unsat_on_ms * 1e6 / static_cast<double>(unsat_count)
                      : 0.0;
  const double unsat_off_ns =
      unsat_count > 0 ? unsat_off_ms * 1e6 / static_cast<double>(unsat_count)
                      : 0.0;
  std::printf("  [unsat_flood] rejection: %.0f ns/query oracle-on vs %.0f "
              "ns/query oracle-off (%.1fx, %zu queries, reject rate %.1f%%, "
              "%llu wrong rejections)\n",
              unsat_on_ns, unsat_off_ns, unsat_speedup, unsat_count,
              unsat_reject_rate * 100.0,
              static_cast<unsigned long long>(unsat_wrong_rejections));

  // Machine metadata: the ROADMAP's single-core caveat, machine-checkable.
  // `workers_post_clamp` is what the engine actually ran per requested
  // count (it clamps to hardware_concurrency); the caveat flag is set when
  // nothing ever ran with >1 worker, i.e. every parallel speedup row on
  // this host only shows scratch reuse, not parallelism.
  std::vector<uint32_t> workers_post_clamp;
  uint32_t max_active_workers = 0;
  for (const Measurement& m : measurements) {
    if (m.name == "engine_warm") {
      workers_post_clamp.push_back(m.active_workers);
      max_active_workers = std::max(max_active_workers, m.active_workers);
    }
  }
  const uint32_t hw_threads = std::thread::hardware_concurrency();
  const bool single_core_caveat = hw_threads <= 1 || max_active_workers <= 1;

  const char* json_env = std::getenv("PATHENUM_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_throughput.json";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"bench\": \"bench_throughput\",\n"
        << "  \"dataset\": \"" << JsonEscape(dataset) << "\",\n"
        << "  \"scale\": " << env.scale << ",\n"
        << "  \"hops\": " << env.hops << ",\n"
        << "  \"num_queries\": " << queries.size() << ",\n"
        << "  \"result_limit\": " << result_limit << ",\n"
        << "  \"time_limit_ms\": " << env.time_limit_ms << ",\n"
        << "  \"skew\": {\"queries\": " << skewed.size()
        << ", \"distinct\": " << skew_pool.size()
        << ", \"hops\": " << skew_hops << ", \"limit\": " << skew_limit
        << "},\n"
        << "  \"hardware_concurrency\": " << hw_threads << ",\n"
        << "  \"machine\": {\"hardware_concurrency\": " << hw_threads
        << ", \"workers_requested\": [";
    for (size_t i = 0; i < worker_counts.size(); ++i) {
      out << (i ? ", " : "") << worker_counts[i];
    }
    out << "], \"workers_post_clamp\": [";
    for (size_t i = 0; i < workers_post_clamp.size(); ++i) {
      out << (i ? ", " : "") << workers_post_clamp[i];
    }
    out << "], \"single_core_caveat\": "
        << (single_core_caveat ? "true" : "false") << "},\n";
    out << "  \"update_heavy\": {\"rounds\": " << update_rounds
        << ", \"edges_per_round\": " << update_edges
        << ", \"incremental_hit_rate\": " << update_incr_rate
        << ", \"fullclear_hit_rate\": " << update_full_rate
        << ", \"hit_rate_delta\": " << update_incr_rate - update_full_rate
        << "},\n"
        << "  \"split_heavy\": {\"queries\": " << heavy_count
        << ", \"hops\": " << heavy_hops << ", \"limit\": " << heavy_limit
        << ", \"workers\": " << split_workers
        << ", \"serial_ms\": " << split_off_ms
        << ", \"split_ms\": " << split_on_ms
        << ", \"latency_speedup\": " << split_speedup << "},\n"
        << "  \"unsat_flood\": {\"queries\": " << unsat_count
        << ", \"mixed_queries\": " << unsat_mixed_count
        << ", \"off_ms\": " << unsat_off_ms
        << ", \"on_ms\": " << unsat_on_ms
        << ", \"off_ns_per_query\": " << unsat_off_ns
        << ", \"on_ns_per_query\": " << unsat_on_ns
        << ", \"rejection_speedup\": " << unsat_speedup
        << ", \"reject_rate\": " << unsat_reject_rate
        << ", \"wrong_rejections\": " << unsat_wrong_rejections << "},\n"
        << "  \"measurements\": [\n";
    for (size_t i = 0; i < measurements.size(); ++i) {
      const Measurement& m = measurements[i];
      out << "    {\"config\": \"" << JsonEscape(m.name) << "\", "
          << "\"workers\": " << m.workers << ", "
          << "\"active_workers\": " << m.active_workers << ", "
          << "\"num_queries\": " << m.num_queries << ", "
          << "\"warm\": " << (m.warm ? "true" : "false") << ", "
          << "\"wall_ms\": " << m.wall_ms << ", "
          << "\"queries_per_sec\": " << m.qps << ", "
          << "\"total_results\": " << m.total_results;
      if (m.comparable_to_naive && naive_qps > 0.0) {
        out << ", \"speedup_vs_naive\": " << m.qps / naive_qps;
      }
      if (m.has_cache) {
        out << ", \"index_hits\": " << m.cache.index_hits
            << ", \"index_misses\": " << m.cache.index_misses
            << ", \"result_hits\": " << m.cache.result_hits
            << ", \"invalidation_evictions\": "
            << m.cache.invalidation_evictions
            << ", \"index_bytes\": " << m.cache.index_bytes
            << ", \"result_bytes\": " << m.cache.result_bytes;
      }
      out << "}" << (i + 1 < measurements.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cerr << "[bench] wrote " << json_path << "\n";
  }

  bench::PrintShapeNote(
      "engine_warm at >1 workers should beat naive_sequential by >= the "
      "worker count's share of physical cores (single-core hosts only show "
      "the scratch-reuse gain); skew_cache_on should beat skew_cache_off by "
      ">= 2x once warm, and uniform_cache_on should sit within ~5% of "
      "engine_warm at the same worker count. update_incremental should "
      "retain a far higher hit rate than update_fullclear (which starts "
      "cold every epoch) at equal-or-better throughput. split_heavy_on "
      "should cut the serial heavy-query latency by roughly the core "
      "count's share on a multi-core host (ties on a single core). "
      "unsat_flood_on should reject the all-unsatisfiable flood >= 50x "
      "faster than unsat_flood_off pays per-query builds for it, with "
      "wrong_rejections exactly 0 (the differential check).");
  return 0;
}
