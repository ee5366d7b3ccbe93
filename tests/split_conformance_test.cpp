// Engine conformance: every execution path of a plain or split query
// against the brute-force reference (core/reference.h) on small sparse and
// dense ER, cycle-heavy and DAG graphs, for every (s, t) pair and k = 1..5,
// each with kAuto, kDfs and kJoin. The paths under test:
//  - both engines' split modes (QueryEngine::RunBatch and AsyncEngine::Submit
//    with split_branches) and their plain paths (a deduplicating RunBatch
//    and plain async tickets), each run four ways:
//    - cold: a fresh engine with a cache, so every miss builds solo;
//    - warm: the second pass over the same queries on the same engine, so
//      index-cache hits and (plain runs, default max_result_bytes) result-
//      cache replay serve it;
//    - oracle: a standing live oracle attached (QueryEngine::SetLiveOracle,
//      AsyncEngineOptions::enable_oracle), so unsatisfiable queries are shed
//      at the scheduler's gate;
//    - uncached (sync only): an engine built with enable_cache = false;
//  - PathEnumerator::Run called directly, with no cache;
//  - PathEnumerator::RunConstrained with an always-true edge filter.
// Every schedule must reach the reference set:
//  - unlimited runs return exactly that set;
//  - with result_limit = 3 each run delivers exactly min(3, total)
//    distinct valid paths and reports the serial run's terminal state and
//    hit_result_limit / stopped_by_sink flags;
//  - a query shed as kUnsatisfiable has an empty reference set and
//    delivered nothing.
// Each engine driver also gets one invalid query per graph (a target out of
// range): it must complete as kRejected with a message and no sink call.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/path_enum.h"
#include "core/reference.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "live/async_engine.h"
#include "live/live_oracle.h"
#include "test_util.h"
#include "util/rng.h"

namespace pathenum {
namespace {

using testing::PathSet;
using testing::ToSet;

constexpr uint32_t kWorkers = 3;
constexpr uint64_t kLimit = 3;

struct NamedGraph {
  std::string name;
  Graph graph;
};

/// A random DAG: each forward pair u < v is an edge with probability ~1/3.
Graph RandomDag(VertexId n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.NextBounded(3) == 0) edges.emplace_back(u, v);
    }
  }
  return Graph::FromEdges(n, edges);
}

std::vector<NamedGraph> Graphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"er", ErdosRenyi(12, 48, /*seed=*/7)});
  graphs.push_back({"cycles", CompleteDigraph(6)});
  graphs.push_back({"dag", RandomDag(10, /*seed=*/5)});
  // Dense enough that split joins probe more than one left-tuple chunk.
  graphs.push_back({"dense", ErdosRenyi(10, 60, /*seed=*/11)});
  return graphs;
}

/// Every (s, t) pair with s != t, for k = 1..5.
std::vector<Query> AllQueries(const Graph& g) {
  std::vector<Query> queries;
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      if (s == t) continue;
      for (uint32_t k = 1; k <= 5; ++k) queries.push_back({s, t, k});
    }
  }
  return queries;
}

/// What one run delivered and reported.
struct Outcome {
  std::vector<std::vector<VertexId>> paths;
  QueryStats stats;
  QueryState state = QueryState::kOk;
  std::string error;
};

/// Which entry point runs the queries.
enum class Front { kSync, kAsync, kDirect, kConstrained };

/// How a driver's engine is prepared before the checked pass.
enum class Pass { kCold, kWarm, kOracle, kUncached };

struct Driver {
  Front front = Front::kSync;
  bool split = false;
  Pass pass = Pass::kCold;

  bool engine() const {
    return front == Front::kSync || front == Front::kAsync;
  }

  std::string Name() const {
    if (front == Front::kDirect) return "direct Run";
    if (front == Front::kConstrained) return "direct RunConstrained";
    const char* pass_name = pass == Pass::kCold     ? "cold"
                            : pass == Pass::kWarm   ? "warm"
                            : pass == Pass::kOracle ? "oracle"
                                                    : "uncached";
    return std::string(front == Front::kAsync ? "async" : "sync") +
           (split ? " split " : " plain ") + pass_name;
  }
};

std::vector<Driver> Drivers() {
  std::vector<Driver> drivers;
  for (const Pass pass : {Pass::kCold, Pass::kWarm, Pass::kOracle}) {
    for (const Front front : {Front::kSync, Front::kAsync}) {
      for (const bool split : {true, false}) {
        drivers.push_back({front, split, pass});
      }
    }
  }
  for (const bool split : {true, false}) {
    drivers.push_back({Front::kSync, split, Pass::kUncached});
  }
  drivers.push_back({Front::kDirect, false, Pass::kCold});
  drivers.push_back({Front::kConstrained, false, Pass::kCold});
  return drivers;
}

/// The checked pass's outcomes, plus the cache hits it saw (warm passes
/// must be served by the cache) and the engine's oracle rejections.
struct DriverRun {
  std::vector<Outcome> outcomes;
  uint64_t cache_hits = 0;
  uint64_t oracle_rejects = 0;
};

DriverRun RunSync(const Graph& g, const std::vector<Query>& queries,
                  const EnumOptions& opts, const Driver& d) {
  // Plain batches run with in-batch dedup (the default).
  QueryEngine engine(g, {.num_workers = kWorkers,
                         .enable_cache = d.pass != Pass::kUncached});
  std::unique_ptr<LiveDistanceOracle> oracle;
  if (d.pass == Pass::kOracle) {
    oracle = std::make_unique<LiveDistanceOracle>(g);
    engine.SetLiveOracle(oracle.get());
  }
  const BatchOptions batch{.query = opts, .split_branches = d.split};
  if (d.pass == Pass::kWarm) engine.CountBatch(queries, batch);
  std::vector<CollectingSink> sinks(queries.size());
  std::vector<PathSink*> sink_ptrs;
  for (CollectingSink& sink : sinks) sink_ptrs.push_back(&sink);
  const BatchResult r = engine.RunBatch(queries, sink_ptrs, batch);
  DriverRun run;
  run.outcomes.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    run.outcomes[i] = {sinks[i].paths(), r.stats[i], r.states[i],
                       r.errors[i]};
  }
  run.cache_hits = r.cache.index_hits + r.cache.result_hits;
  run.oracle_rejects = engine.Stats().oracle_rejects;
  return run;
}

DriverRun RunAsync(const Graph& g, const std::vector<Query>& queries,
                   const EnumOptions& opts, const Driver& d) {
  AsyncEngineOptions engine_opts;
  engine_opts.num_workers = kWorkers;
  engine_opts.enable_oracle = d.pass == Pass::kOracle;
  AsyncEngine engine(g, engine_opts);
  const SubmitOptions submit{.query = opts, .split_branches = d.split};
  if (d.pass == Pass::kWarm) {
    std::vector<CountingSink> warm(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      engine.Submit(queries[i], warm[i], submit);
    }
    engine.Drain();
  }
  const IndexCacheStats before = engine.stats().cache;
  std::vector<CollectingSink> sinks(queries.size());
  std::vector<QueryTicket> tickets;
  for (size_t i = 0; i < queries.size(); ++i) {
    tickets.push_back(engine.Submit(queries[i], sinks[i], submit));
  }
  DriverRun run;
  run.outcomes.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryStats stats = tickets[i].Wait();
    run.outcomes[i] = {sinks[i].paths(), stats, tickets[i].state(),
                       tickets[i].error()};
  }
  const IndexCacheStats delta = engine.stats().cache - before;
  run.cache_hits = delta.index_hits + delta.result_hits;
  run.oracle_rejects = engine.stats().oracle_rejects;
  return run;
}

/// Runs every query through one PathEnumerator on the calling thread:
/// Run with no cache, or RunConstrained with an edge filter that admits
/// every edge.
DriverRun RunDirect(const Graph& g, const std::vector<Query>& queries,
                    const EnumOptions& opts, const Driver& d) {
  PathEnumerator pe(g);
  const EdgeFilter admit_all = [](VertexId, VertexId, EdgeId) {
    return true;
  };
  const PathConstraints constraints{.edge_filter = &admit_all};
  DriverRun run;
  run.outcomes.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    CollectingSink sink;
    const QueryStats stats =
        d.front == Front::kConstrained
            ? pe.RunConstrained(queries[i], constraints, sink, opts)
            : pe.Run(queries[i], sink, opts);
    run.outcomes[i] = {sink.paths(), stats, stats.counters.TerminalState(),
                       ""};
  }
  return run;
}

class SplitConformanceTest : public ::testing::TestWithParam<Method> {};

TEST_P(SplitConformanceTest, MatchesBruteForceOnEveryPair) {
  const std::vector<Driver> drivers = Drivers();
  std::vector<uint64_t> oracle_rejects(drivers.size(), 0);
  for (const NamedGraph& named : Graphs()) {
    const std::vector<Query> queries = AllQueries(named.graph);
    std::vector<PathSet> expected;
    for (const Query& q : queries) {
      expected.push_back(ToSet(BruteForcePaths(named.graph, q)));
    }
    // The engines' batches end with one invalid query.
    std::vector<Query> engine_queries = queries;
    engine_queries.push_back({0, named.graph.num_vertices(), 2});
    PathEnumerator serial(named.graph);
    for (const bool limited : {false, true}) {
      EnumOptions opts;
      opts.method = GetParam();
      if (limited) opts.result_limit = kLimit;
      std::vector<QueryStats> serial_stats;
      for (const Query& q : queries) {
        CountingSink sink;
        serial_stats.push_back(serial.Run(q, sink, opts));
      }
      for (size_t di = 0; di < drivers.size(); ++di) {
        const Driver& d = drivers[di];
        const DriverRun run =
            d.front == Front::kSync
                ? RunSync(named.graph, engine_queries, opts, d)
            : d.front == Front::kAsync
                ? RunAsync(named.graph, engine_queries, opts, d)
                : RunDirect(named.graph, queries, opts, d);
        oracle_rejects[di] += run.oracle_rejects;
        if (d.engine()) {
          const Outcome& invalid = run.outcomes.back();
          EXPECT_EQ(invalid.state, QueryState::kRejected)
              << named.name << " " << d.Name() << ": invalid query";
          EXPECT_FALSE(invalid.error.empty())
              << named.name << " " << d.Name() << ": invalid query";
          EXPECT_TRUE(invalid.paths.empty())
              << named.name << " " << d.Name() << ": invalid query";
        }
        if (d.pass == Pass::kWarm) {
          EXPECT_GT(run.cache_hits, 0u)
              << named.name << " " << d.Name() << ": no cache hit";
        }
        for (size_t i = 0; i < queries.size(); ++i) {
          const Query& q = queries[i];
          const Outcome& o = run.outcomes[i];
          const EnumCounters& seq = serial_stats[i].counters;
          const std::string where =
              named.name + " " + d.Name() + " q=(" +
              std::to_string(q.source) + "," + std::to_string(q.target) +
              "," + std::to_string(q.hops) + ")" +
              (limited ? " limit=3" : "");
          ASSERT_TRUE(o.error.empty()) << where << ": " << o.error;
          const PathSet got_set = ToSet(o.paths);
          EXPECT_EQ(got_set.size(), o.paths.size())
              << where << ": a path delivered twice";
          EXPECT_EQ(o.stats.counters.num_results, o.paths.size()) << where;
          if (o.state == QueryState::kUnsatisfiable) {
            EXPECT_EQ(d.pass, Pass::kOracle) << where;
            EXPECT_TRUE(expected[i].empty()) << where << ": wrong rejection";
            EXPECT_TRUE(o.paths.empty()) << where;
            continue;
          }
          EXPECT_EQ(o.state, seq.TerminalState()) << where;
          // A constrained query runs DFS unless JOIN is forced: the cost
          // model does not see constraint selectivity.
          if (d.front != Front::kConstrained || opts.method != Method::kAuto) {
            EXPECT_EQ(o.stats.method, serial_stats[i].method) << where;
          }
          if (!limited) {
            EXPECT_EQ(got_set, expected[i]) << where;
            continue;
          }
          EXPECT_EQ(o.paths.size(),
                    std::min<size_t>(kLimit, expected[i].size()))
              << where;
          for (const std::vector<VertexId>& p : got_set) {
            EXPECT_TRUE(expected[i].count(p) > 0) << where << ": invalid path";
          }
          EXPECT_EQ(o.stats.counters.hit_result_limit, seq.hit_result_limit)
              << where;
          EXPECT_EQ(o.stats.counters.stopped_by_sink, seq.stopped_by_sink)
              << where;
        }
      }
    }
  }
  // The DAG's backward pairs are unsatisfiable: every oracle driver must
  // have shed some of them at its gate.
  for (size_t di = 0; di < drivers.size(); ++di) {
    if (drivers[di].pass != Pass::kOracle) continue;
    EXPECT_GT(oracle_rejects[di], 0u) << drivers[di].Name();
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, SplitConformanceTest,
                         ::testing::Values(Method::kAuto, Method::kDfs,
                                           Method::kJoin),
                         [](const ::testing::TestParamInfo<Method>& info) {
                           switch (info.param) {
                             case Method::kDfs: return "Dfs";
                             case Method::kJoin: return "Join";
                             default: return "Auto";
                           }
                         });

}  // namespace
}  // namespace pathenum
