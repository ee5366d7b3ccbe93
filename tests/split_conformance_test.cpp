// Engine conformance: both engines' split modes (QueryEngine::RunBatch and
// AsyncEngine::Submit with split_branches) and their plain cold-build
// paths (a cached, deduplicating work-stealing RunBatch and plain async
// tickets, where every cache miss builds solo on the worker that claimed
// it), each with kAuto, kDfs and kJoin, against the brute-force reference
// (core/reference.h) on small sparse and dense ER, cycle-heavy and DAG
// graphs, for every (s, t) pair and k = 1..5. Every schedule must reach
// the reference set:
//  - unlimited runs return exactly that set;
//  - with result_limit = 3 each run delivers exactly min(3, total)
//    distinct valid paths and reports the serial run's terminal state and
//    hit_result_limit / stopped_by_sink flags.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/path_enum.h"
#include "core/reference.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "live/async_engine.h"
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

std::vector<Outcome> RunSync(const Graph& g, const std::vector<Query>& queries,
                             const EnumOptions& opts, bool split) {
  // The split path runs uncached; the plain path with the cache on and
  // in-batch dedup (the default), through the work-stealing scheduler.
  QueryEngine engine(g, {.num_workers = kWorkers, .enable_cache = !split});
  std::vector<CollectingSink> sinks(queries.size());
  std::vector<PathSink*> sink_ptrs;
  for (CollectingSink& sink : sinks) sink_ptrs.push_back(&sink);
  const BatchResult r = engine.RunBatch(
      queries, sink_ptrs, {.query = opts, .split_branches = split});
  std::vector<Outcome> out(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    out[i] = {sinks[i].paths(), r.stats[i], r.states[i], r.errors[i]};
  }
  return out;
}

std::vector<Outcome> RunAsync(const Graph& g,
                              const std::vector<Query>& queries,
                              const EnumOptions& opts, bool split) {
  AsyncEngineOptions engine_opts;
  engine_opts.num_workers = kWorkers;
  AsyncEngine engine(g, engine_opts);
  std::vector<CollectingSink> sinks(queries.size());
  std::vector<QueryTicket> tickets;
  for (size_t i = 0; i < queries.size(); ++i) {
    tickets.push_back(engine.Submit(
        queries[i], sinks[i],
        SubmitOptions{.query = opts, .split_branches = split}));
  }
  std::vector<Outcome> out(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryStats stats = tickets[i].Wait();
    out[i] = {sinks[i].paths(), stats, tickets[i].state(), tickets[i].error()};
  }
  return out;
}

class SplitConformanceTest : public ::testing::TestWithParam<Method> {};

TEST_P(SplitConformanceTest, MatchesBruteForceOnEveryPair) {
  for (const NamedGraph& named : Graphs()) {
    const std::vector<Query> queries = AllQueries(named.graph);
    std::vector<PathSet> expected;
    for (const Query& q : queries) {
      expected.push_back(ToSet(BruteForcePaths(named.graph, q)));
    }
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
      // Every run starts on a fresh engine: the plain paths' caches are
      // cold.
      for (const auto& [async, split] : {std::pair{false, true},
                                         {true, true},
                                         {false, false},
                                         {true, false}}) {
        const std::vector<Outcome> got =
            async ? RunAsync(named.graph, queries, opts, split)
                  : RunSync(named.graph, queries, opts, split);
        for (size_t i = 0; i < queries.size(); ++i) {
          const Query& q = queries[i];
          const Outcome& o = got[i];
          const EnumCounters& seq = serial_stats[i].counters;
          const std::string where =
              named.name + (async ? " async" : " sync") +
              (split ? " split" : " plain") + " q=(" +
              std::to_string(q.source) + "," + std::to_string(q.target) +
              "," + std::to_string(q.hops) + ")" +
              (limited ? " limit=3" : "");
          ASSERT_TRUE(o.error.empty()) << where << ": " << o.error;
          EXPECT_EQ(o.state, seq.TerminalState()) << where;
          EXPECT_EQ(o.stats.method, serial_stats[i].method) << where;
          const PathSet got_set = ToSet(o.paths);
          EXPECT_EQ(got_set.size(), o.paths.size())
              << where << ": a path delivered twice";
          EXPECT_EQ(o.stats.counters.num_results, o.paths.size()) << where;
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
