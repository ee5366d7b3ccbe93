#include "traced.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <thread>
#include <unordered_set>

#include "core/index.h"
#include "core/path_enum.h"
#include "engine/index_cache.h"
#include "engine/query_context.h"
#include "graph/io.h"
#include "live/snapshot.h"

namespace perfbench {

namespace {

using pathenum::IndexBuilder;
using pathenum::LightweightIndex;
using pathenum::PathEnumerator;

constexpr int kReps = 3;          // repeated layer timings report a median
constexpr uint32_t kUpdates = 32;  // delta stream replayed per traced run

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The first `n` distinct queries of the workload's request stream.
std::vector<Query> LayerSample(const Inputs& in, size_t n) {
  std::vector<Query> out;
  std::unordered_set<uint64_t> seen;
  for (uint64_t i = 0; out.size() < n && i < in.MaxQueries() && i < 1000000;
       ++i) {
    const Query q = in.At(i);
    if (seen.insert(KeyOf(q)).second) out.push_back(q);
  }
  return out;
}

pathenum::IndexCacheStats CacheStatsOf(Served& s) {
  if (s.async != nullptr) return s.async->stats().cache;
  return s.batch->cache() != nullptr ? s.batch->cache()->Stats()
                                     : pathenum::IndexCacheStats{};
}

WindowResult Replay(Served& s, const WorkloadSpec& w, const Inputs& in,
                    const Graph* base, uint32_t clients, uint64_t requests,
                    SpanRecorder& rec) {
  Budget budget;
  budget.seconds = 120.0;
  budget.max_requests = requests;
  return s.async != nullptr
             ? RunAsyncWindow(*s.async, w, in, base, clients, budget, 0, rec)
             : RunBatchWindow(*s.batch, w, in, budget, 0, rec);
}

}  // namespace

int RunTraced(const Config& cfg, const WorkloadSpec& w) {
  SpanRecorder rec(true);
  const std::string path = GraphPath(cfg.data_dir, w);
  const std::string name = w.name;
  Metrics m;

  // graph: io::LoadBinary.
  Graph g;
  for (int r = 0; r < kReps; ++r) {
    const ScopedSpan s(rec, "graph.io.load", 0, 0);
    g = pathenum::LoadBinary(path);
  }
  m.Add("graph.io.load_ms", Pct(rec.DurationsMs("graph.io.load"), 50), "ms");

  const Inputs in = MakeInputs(w, g, cfg.seed, cfg.seconds);
  const EnumOptions& opts = in.opts;
  const std::vector<Query> sample = LayerSample(in, name == "deep_k5" ? 16 : 64);
  const double edges = static_cast<double>(g.num_edges());

  // core.index / core.plan / core.enumerate: one query at a time on one
  // thread, each call under its own span beneath the query's root span.
  PathEnumerator pe(g);
  std::vector<LightweightIndex> built;
  std::vector<double> scanned, scan_per_edge, vertices, bytes;
  double index_edges = 0, paths = 0, edges_accessed = 0, partials = 0,
         invalid = 0, joins = 0;
  for (size_t j = 0; j < sample.size(); ++j) {
    const Query& q = sample[j];
    const ScopedSpan root(rec, "query", 0, j + 1);
    LightweightIndex idx;
    {
      const ScopedSpan s(rec, "core.index.build", root.id(), j + 1);
      idx = pe.BuildIndex(q, PathEnumerator::BuildOptionsFor(q, opts));
    }
    pathenum::QueryStats plan_stats;
    {
      const ScopedSpan s(rec, "core.plan", root.id(), j + 1);
      const auto plan = PathEnumerator::PlanExecution(idx, opts, plan_stats);
      joins += plan.method == pathenum::Method::kJoin ? 1 : 0;
    }
    pathenum::CountingSink sink;
    pathenum::QueryStats st;
    {
      const ScopedSpan s(rec, "core.enumerate", root.id(), j + 1);
      st = pe.RunWithIndex(idx, sink, opts);
    }
    const auto& bs = idx.build_stats();
    scanned.push_back(static_cast<double>(bs.edges_scanned));
    scan_per_edge.push_back(bs.edges_scanned / edges);
    vertices.push_back(idx.num_vertices());
    bytes.push_back(static_cast<double>(idx.MemoryBytes()));
    index_edges += static_cast<double>(idx.num_edges());
    paths += static_cast<double>(sink.count());
    edges_accessed += static_cast<double>(st.counters.edges_accessed);
    partials += static_cast<double>(st.counters.partials);
    invalid += static_cast<double>(st.counters.invalid_partials);
    built.push_back(std::move(idx));
  }
  const std::vector<double> build_ms = rec.DurationsMs("core.index.build");
  const std::vector<double> plan_ms = rec.DurationsMs("core.plan");
  std::vector<double> enum_ms = rec.DurationsMs("core.enumerate");
  std::vector<double> serial_ms;  // build + plan + enumerate per query
  for (size_t j = 0; j < enum_ms.size(); ++j) {
    serial_ms.push_back(build_ms[j] + enum_ms[j]);
    enum_ms[j] = std::max(0.0, enum_ms[j] - plan_ms[j]);
  }
  const double serial_after_build = Sum(enum_ms) + Sum(plan_ms);
  m.Add("core.index.build_ms_p50", Pct(build_ms, 50), "ms");
  m.Add("core.index.build_ms_p99", Pct(build_ms, 99), "ms");
  m.Add("core.index.edges_scanned_mean", Mean(scanned), "edges");
  m.Add("core.index.scan_per_graph_edge_p50", Pct(scan_per_edge, 50), "ratio");
  m.Add("core.index.useful_edge_ratio", Ratio(index_edges, Sum(scanned)),
        "ratio");
  m.Add("core.index.vertices_p50", Pct(vertices, 50), "vertices");
  m.Add("core.index.bytes_p50", Pct(bytes, 50), "bytes");

  // core.batch_build: fused BuildBatch in chunks of 64 against nproc
  // threads each doing solo builds of the same chunk.
  {
    const auto build_opts = PathEnumerator::BuildOptionsFor(sample[0], opts);
    IndexBuilder fused;
    std::vector<IndexBuilder> solo(cfg.nproc);
    double member_edges = 0, shared_edges = 0;
    std::vector<double> batch_ms, solo_ms;
    for (int r = 0; r < kReps; ++r) {
      double batch_total = 0, solo_total = 0;
      for (size_t c = 0; c < sample.size(); c += 64) {
        const size_t end = std::min(sample.size(), c + 64);
        std::vector<pathenum::BatchBuildRequest> reqs;
        for (size_t j = c; j < end; ++j) reqs.push_back({sample[j]});
        Clock::time_point t0 = Clock::now();
        {
          const ScopedSpan s(rec, "core.batch_build", 0, 0);
          const auto idxs = fused.BuildBatch(g, reqs, build_opts);
          if (r == 0) {
            for (const auto& idx : idxs) {
              member_edges += idx.build_stats().edges_scanned;
            }
            shared_edges += idxs[0].build_stats().batch_edges_scanned;
          }
        }
        batch_total += MsSince(t0);
        t0 = Clock::now();
        {
          const ScopedSpan s(rec, "core.batch_build.parallel_solo", 0, 0);
          std::vector<std::thread> threads;
          for (uint32_t t = 0; t < cfg.nproc; ++t) {
            threads.emplace_back([&, t] {
              for (size_t j = c + t; j < end; j += cfg.nproc) {
                solo[t].Build(g, sample[j], build_opts);
              }
            });
          }
          for (std::thread& th : threads) th.join();
        }
        solo_total += MsSince(t0);
      }
      batch_ms.push_back(batch_total);
      solo_ms.push_back(solo_total);
    }
    m.Add("core.batch_build.ms_per_member",
          Pct(batch_ms, 50) / static_cast<double>(sample.size()), "ms");
    m.Add("core.batch_build.edge_fusion", Ratio(member_edges, shared_edges),
          "ratio");
    m.Add("core.batch_build.speedup_vs_parallel_solo",
          Ratio(Pct(solo_ms, 50), Pct(batch_ms, 50)), "ratio");
  }

  m.Add("core.plan.ms_p50", Pct(plan_ms, 50), "ms");
  m.Add("core.plan.join_share", Ratio(joins, sample.size()), "ratio");
  m.Add("core.enumerate.ms_p50", Pct(enum_ms, 50), "ms");
  m.Add("core.enumerate.ms_p95", Pct(enum_ms, 95), "ms");
  m.Add("core.enumerate.paths_per_s", Ratio(paths, Sum(enum_ms) / 1e3),
        "paths/s");
  m.Add("core.enumerate.edges_per_path", Ratio(edges_accessed, paths),
        "edges");
  m.Add("core.enumerate.invalid_partial_share", Ratio(invalid, partials),
        "ratio");

  pathenum::EngineOptions eopts;
  eopts.num_workers = cfg.nproc;
  eopts.enable_cache = true;
  pathenum::BatchOptions serial_batch;
  serial_batch.query = opts;
  pathenum::BatchOptions split_batch = serial_batch;
  split_batch.split_branches = true;

  // engine.split: split RunBatch with the index already cached (result
  // cache off, so every call enumerates).
  {
    pathenum::EngineOptions split_opts = eopts;
    split_opts.cache.max_result_bytes = 0;
    QueryEngine engine(g, split_opts);
    for (size_t j = 0; j < sample.size(); ++j) {
      engine.CountBatch({&sample[j], 1}, serial_batch);
      const ScopedSpan s(rec, "engine.split.run", 0, j + 1);
      engine.CountBatch({&sample[j], 1}, split_batch);
    }
    const std::vector<double> split_ms = rec.DurationsMs("engine.split.run");
    const double speedup = Ratio(serial_after_build, Sum(split_ms));
    m.Add("engine.split.enumerate_ms_p50", Pct(split_ms, 50), "ms");
    m.Add("engine.split.speedup", speedup, "ratio");
    m.Add("engine.split.efficiency", speedup / cfg.nproc, "ratio");
  }

  // engine.batch: the whole layer sample as one cold RunBatch.
  {
    QueryEngine engine(g, eopts);
    pathenum::BatchResult r;
    {
      const ScopedSpan s(rec, "engine.batch.run", 0, 0);
      r = engine.CountBatch(sample, serial_batch);
    }
    const double wall = rec.DurationsMs("engine.batch.run").back();
    m.Add("engine.batch.parallel_efficiency",
          Ratio(Sum(serial_ms), std::max(1u, r.workers) * wall), "ratio");
    m.Add("engine.batch.fused_share", Ratio(r.batched_builds, sample.size()),
          "ratio");
  }

  // The workload's own front-end, replayed for a fixed number of requests:
  // once untraced and once traced, on fresh set-ups, for the tracing
  // overhead; the traced replay feeds the cache and async metrics.
  const uint64_t requests = name == "online_cold"  ? 192
                            : name == "batch_cold" ? 4
                            : name == "deep_k5"    ? 24
                                                   : 20000;
  std::unique_ptr<Graph> base;
  if (w.write_every > 0) base = std::make_unique<Graph>(g);
  SpanRecorder off(false);
  WindowResult plain;
  {
    Served s = SetUp(w, path, in, cfg.nproc);
    plain = Replay(s, w, in, base.get(), cfg.nproc, requests, off);
  }
  Served front = SetUp(w, path, in, cfg.nproc);
  const pathenum::IndexCacheStats cache0 = CacheStatsOf(front);
  const AsyncEngine::Stats async0 =
      front.async != nullptr ? front.async->stats() : AsyncEngine::Stats{};
  WindowResult traced =
      Replay(front, w, in, base.get(), cfg.nproc, requests, rec);
  const pathenum::IndexCacheStats cache = CacheStatsOf(front) - cache0;
  const uint64_t mismatches = CheckSamples(traced.samples);
  const double queries = static_cast<double>(traced.queries);

  const double hits = static_cast<double>(cache.result_hits + cache.index_hits);
  m.Add("engine.cache.hit_rate", Ratio(hits, queries), "ratio");
  m.Add("engine.cache.result_hit_share", Ratio(cache.result_hits, queries),
        "ratio");
  m.Add("engine.cache.coalesced_builds",
        static_cast<double>(cache.coalesced_builds), "count");
  m.Add("engine.cache.evictions_per_update",
        Ratio(cache.invalidation_evictions, traced.update_ms.size()), "count");
  m.Add("engine.cache.index_mb", cache.index_bytes / 1048576.0, "MiB");
  m.Add("engine.cache.result_mb", cache.result_bytes / 1048576.0, "MiB");

  // live.async: the async front-end's own replay, or — for the batch
  // workloads — the layer sample through an AsyncEngine.
  std::unique_ptr<AsyncEngine> own_async;
  AsyncEngine* async = front.async.get();
  WindowResult own_run;
  const WindowResult* async_run = &traced;
  AsyncEngine::Stats async_delta{};
  if (async != nullptr) {
    const AsyncEngine::Stats now = async->stats();
    async_delta.executed = now.executed - async0.executed;
    async_delta.batched_builds = now.batched_builds - async0.batched_builds;
  } else {
    pathenum::AsyncEngineOptions aopts;
    aopts.num_workers = cfg.nproc;
    own_async = std::make_unique<AsyncEngine>(Graph(g), aopts);
    async = own_async.get();
    Inputs sub;
    sub.opts = opts;
    sub.pool = sample;
    sub.seed = cfg.seed;
    WorkloadSpec ws = w;
    ws.front = FrontEnd::kAsync;
    ws.split = false;
    ws.sample_cap = 0;
    Budget budget;
    budget.seconds = 120.0;
    own_run = RunAsyncWindow(*async, ws, sub, nullptr, cfg.nproc, budget, 0,
                             rec);
    async_run = &own_run;
    const AsyncEngine::Stats now = async->stats();
    async_delta.executed = now.executed;
    async_delta.batched_builds = now.batched_builds;
  }
  // Result-cache hit latency through the async layer against the same hit
  // replayed directly through QueryContext::RunCached. The probe is the
  // first sample pair at k = 3, enumerated completely: its result set is
  // small enough to be result-cached on every workload.
  {
    const Query q{sample[0].source, sample[0].target,
                  std::min(sample[0].hops, 3u)};
    EnumOptions probe = opts;
    probe.result_limit = std::numeric_limits<uint64_t>::max();
    constexpr int kHits = 200;
    pathenum::CountingSink warm;
    async->Submit(q, warm, probe).Wait();
    for (int r = 0; r < kHits; ++r) {
      pathenum::CountingSink sink;
      const ScopedSpan s(rec, "live.async.hit", 0, 0);
      async->Submit(q, sink, probe).Wait();
    }
    const std::shared_ptr<const GraphView> snap = async->Snapshot();
    pathenum::QueryContext ctx(*snap);
    for (int r = 0; r < kHits; ++r) {
      pathenum::CountingSink sink;
      const ScopedSpan s(rec, "engine.cache.replay", 0, 0);
      ctx.RunCached(q, sink, probe, async->cache());
    }
  }
  const double replay_us = Pct(rec.DurationsMs("engine.cache.replay"), 50) * 1e3;
  m.Add("engine.cache.replay_us_p50", replay_us, "us");
  m.Add("live.async.submit_us_p50", Pct(async_run->submit_us, 50), "us");
  m.Add("live.async.overhead_us_p50",
        Pct(rec.DurationsMs("live.async.hit"), 50) * 1e3 - replay_us, "us");
  m.Add("live.async.queue_depth_mean", Mean(async_run->queue_depth), "count");
  m.Add("live.async.batched_build_share",
        Ratio(async_delta.batched_builds, async_delta.executed), "ratio");

  // live.update: SubmitUpdate through the async engine after its replay.
  {
    DeltaStream deltas(g, cfg.seed + 1);
    for (uint32_t u = 0; u < kUpdates; ++u) {
      const GraphDelta d = deltas.Next();
      const ScopedSpan s(rec, "live.update", 0, 0);
      async->SubmitUpdate(d);
    }
    const std::vector<double> upd = rec.DurationsMs("live.update");
    m.Add("live.update.ms_p50", Pct(upd, 50), "ms");
    m.Add("live.update.ms_p95", Pct(upd, 95), "ms");
  }
  own_async.reset();
  front = Served();

  // live.snapshot: the delta stream through a standalone SnapshotManager
  // and an IndexCache holding the layer sample's indexes.
  {
    pathenum::SnapshotManager snapshots{Graph(g)};
    pathenum::IndexCache cache_alone;
    for (size_t j = 0; j < sample.size(); ++j) {
      const Query& q = sample[j];
      const pathenum::CacheKey key{
          q.source, q.target, q.hops,
          pathenum::IndexOptionsFingerprint(
              PathEnumerator::BuildOptionsFor(q, opts))};
      cache_alone.GetOrBuild(key, [&] { return std::move(built[j]); });
    }
    DeltaStream deltas(g, cfg.seed + 2);
    std::vector<double> balls;
    for (uint32_t u = 0; u < kUpdates; ++u) {
      const GraphDelta d = deltas.Next();
      pathenum::SnapshotManager::Epoch epoch;
      {
        const ScopedSpan s(rec, "live.snapshot.prepare", 0, 0);
        epoch = snapshots.Prepare(d);
      }
      balls.push_back(static_cast<double>(epoch.impact.source_ball_size() +
                                          epoch.impact.target_ball_size()));
      {
        const ScopedSpan s(rec, "live.snapshot.begin_epoch", 0, 0);
        const pathenum::UpdateImpact& impact = epoch.impact;
        cache_alone.BeginEpoch(epoch.snapshot->version(),
                               [&impact](VertexId s, VertexId t, uint32_t k) {
                                 return impact.AffectsQuery(s, t, k);
                               });
      }
      const ScopedSpan s(rec, "live.snapshot.publish", 0, 0);
      snapshots.Publish(epoch);
    }
    m.Add("live.snapshot.prepare_ms_p50",
          Pct(rec.DurationsMs("live.snapshot.prepare"), 50), "ms");
    m.Add("live.snapshot.impact_ball_vertices_mean", Mean(balls), "vertices");
    m.Add("live.snapshot.begin_epoch_ms_p50",
          Pct(rec.DurationsMs("live.snapshot.begin_epoch"), 50), "ms");
    m.Add("live.snapshot.publish_us_p50",
          Pct(rec.DurationsMs("live.snapshot.publish"), 50) * 1e3, "us");
    m.Add("live.snapshot.compactions",
          static_cast<double>(snapshots.stats().compactions), "count");
  }

  m.Add("workload.repeat_share", traced.repeat_share, "ratio");
  m.Add("workload.zero_result_share", Ratio(traced.zero_result, queries),
        "ratio");
  m.Add("workload.results_per_query_p50", Pct(traced.results_per_query, 50),
        "paths");
  const double per_plain = Ratio(plain.elapsed_ms, plain.requests);
  const double per_traced = Ratio(traced.elapsed_ms, traced.requests);
  m.Add("trace.overhead_frac", Ratio(per_traced, per_plain) - 1.0, "ratio");
  m.Add("trace.unattributed_frac", rec.UnattributedFrac(), "ratio");

  if (!cfg.trace_out.empty()) rec.WriteChromeTrace(cfg.trace_out);
  const uint64_t failed = traced.failed + mismatches;
  std::printf("workload %s (traced): layer sample %zu queries, replay %lu "
              "queries, %zu spans%s%s\n",
              w.name, sample.size(), static_cast<unsigned long>(traced.queries),
              rec.size(), cfg.trace_out.empty() ? "" : " -> ",
              cfg.trace_out.c_str());
  m.PrintTable();
  std::printf("{\"run\": {\"workload\": \"%s\", \"seed\": %lu, \"nproc\": %u, "
              "\"num_workers\": %u, \"build_type\": \"%s\", \"march_native\": "
              "%s, \"pathenum_obs\": %s, \"trace\": 1}}\n",
              w.name, static_cast<unsigned long>(cfg.seed), cfg.nproc,
              cfg.nproc, PERFBENCH_BUILD_TYPE,
              PERFBENCH_MARCH_NATIVE ? "true" : "false",
              PERFBENCH_OBS ? "true" : "false");
  m.PrintResultLine(failed == 0, std::max<uint64_t>(traced.queries, 1),
                    failed);
  return 0;
}

}  // namespace perfbench
