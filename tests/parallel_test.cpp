// Tests for the split IDX-DFS branch fan-out (QueryEngine split mode with
// the method forced to DFS) and the triggered-cycle API.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "core/cycles.h"
#include "core/path_enum.h"
#include "core/reference.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "test_util.h"

namespace pathenum {
namespace {

using testing::PathSet;
using testing::ToSet;

/// Runs `q` as a one-query split batch on a `workers`-worker engine with
/// IDX-DFS forced (the first-level branch fan-out) into one collecting
/// sink; `out` receives the delivered set.
BatchResult SplitCollect(const Graph& g, const Query& q, uint32_t workers,
                         PathSet* out, EnumOptions opts = {}) {
  opts.method = Method::kDfs;
  QueryEngine engine(g, {.num_workers = workers});
  CollectingSink sink;
  PathSink* sink_ptr = &sink;
  const BatchResult r = engine.RunBatch(
      {&q, 1}, {&sink_ptr, 1}, {.query = opts, .split_branches = true});
  *out = ToSet(sink.paths());
  EXPECT_EQ(out->size(), sink.paths().size()) << "a path delivered twice";
  return r;
}

/// The serial IDX-DFS run the split results are compared against.
QueryStats SerialDfs(const Graph& g, const Query& q, EnumOptions opts = {}) {
  opts.method = Method::kDfs;
  PathEnumerator serial(g);
  CountingSink sink;
  return serial.Run(q, sink, opts);
}

TEST(SplitQueryTest, CountsAgreeWithSequentialCounters) {
  const Graph g = CompleteDigraph(10);
  const Query q{0, 9, 4};
  const EnumCounters seq = SerialDfs(g, q).counters;
  PathSet got;
  const BatchResult r = SplitCollect(g, q, 4, &got);
  ASSERT_TRUE(r.ok());
  const EnumCounters& split = r.stats[0].counters;
  EXPECT_EQ(split.num_results, seq.num_results);
  EXPECT_EQ(split.partials, seq.partials);
  EXPECT_EQ(split.edges_accessed, seq.edges_accessed);
  const uint32_t hw = std::thread::hardware_concurrency();
  EXPECT_EQ(r.workers, std::min(4u, hw == 0 ? 4u : hw));
}

TEST(SplitQueryTest, ResultLimitIsExactAcrossThreads) {
  const Graph g = LayeredGraph(3, 5);  // 125 paths
  const Query q{0, static_cast<VertexId>(g.num_vertices() - 1), 4};
  EnumOptions opts;
  opts.result_limit = 40;
  PathSet got;
  const BatchResult r = SplitCollect(g, q, 4, &got, opts);
  EXPECT_EQ(got.size(), 40u);
  EXPECT_TRUE(r.stats[0].counters.hit_result_limit);
}

TEST(SplitQueryTest, ExactLimitBoundaryNeverOvershoots) {
  // The merge-barrier regression: at limits exactly at / one under the
  // full result count, delivered must equal the limit — never limit + 1 —
  // and the truncation flags must match the sequential enumerator's.
  const Graph g = LayeredGraph(3, 5);  // 125 paths
  const Query q{0, static_cast<VertexId>(g.num_vertices() - 1), 4};
  for (const uint64_t limit : {125u, 124u, 1u}) {
    EnumOptions opts;
    opts.result_limit = limit;
    const EnumCounters seq = SerialDfs(g, q, opts).counters;
    PathSet got;
    const BatchResult r = SplitCollect(g, q, 4, &got, opts);
    const EnumCounters& split = r.stats[0].counters;
    EXPECT_EQ(got.size(), limit) << "limit=" << limit;
    EXPECT_EQ(split.num_results, seq.num_results);
    EXPECT_EQ(split.hit_result_limit, seq.hit_result_limit)
        << "limit=" << limit;
    EXPECT_EQ(split.stopped_by_sink, seq.stopped_by_sink)
        << "limit=" << limit;
  }
}

TEST(SplitQueryTest, ResponseTargetRecordedOnce) {
  const Graph g = LayeredGraph(3, 5);
  const Query q{0, static_cast<VertexId>(g.num_vertices() - 1), 4};
  EnumOptions opts;
  opts.response_target = 50;
  PathSet got;
  const BatchResult r = SplitCollect(g, q, 4, &got, opts);
  EXPECT_EQ(r.stats[0].counters.num_results, 125u);
  EXPECT_GE(r.stats[0].counters.response_ms, 0.0);
}

TEST(SplitQueryTest, EmptyIndexYieldsNothing) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  PathSet got;
  const BatchResult r = SplitCollect(g, {0, 3, 4}, 4, &got);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(r.stats[0].counters.num_results, 0u);
  EXPECT_EQ(r.states[0], QueryState::kOk);
}

TEST(SplitQueryTest, DirectEdgeBranchHandled) {
  // t itself is a first-level branch when the edge (s, t) exists.
  const Graph g = Graph::FromEdges(3, {{0, 2}, {0, 1}, {1, 2}});
  PathSet got;
  SplitCollect(g, {0, 2, 2}, 2, &got);
  EXPECT_EQ(got, (PathSet{{0, 2}, {0, 1, 2}}));
}

// --- Triggered cycles ---------------------------------------------------------

TEST(CycleApiTest, ClosesThePaperExamplePaths) {
  // Cycles through a hypothetical edge (t, s): each s-t path plus that
  // edge, emitted as (t, s, ..., t).
  const Graph g = testing::PaperExampleGraph();
  PathEnumerator pe(g);
  CollectingSink sink;
  EnumerateTriggeredCycles(pe, testing::kT, testing::kS, 5, sink);
  ASSERT_EQ(sink.paths().size(), 5u);
  for (const auto& c : sink.paths()) {
    EXPECT_EQ(c.front(), testing::kT);
    EXPECT_EQ(c.back(), testing::kT);
    EXPECT_EQ(c[1], testing::kS);
    EXPECT_LE(c.size(), 6u + 1u);
    std::set<VertexId> interior(c.begin() + 1, c.end() - 1);
    EXPECT_EQ(interior.size(), c.size() - 2) << "cycle must be simple";
  }
}

TEST(CycleApiTest, MatchesManualReduction) {
  const Graph g = RMat(5, 150, 44);
  PathEnumerator pe(g);
  for (VertexId u = 0; u < 8; ++u) {
    for (const VertexId v : g.OutNeighbors(u)) {
      CountingSink cycles;
      EnumerateTriggeredCycles(pe, u, v, 5, cycles);
      EXPECT_EQ(cycles.count(), CountPathsBruteForce(g, {v, u, 4}))
          << u << "->" << v;
      break;  // one edge per source suffices
    }
  }
}

TEST(CycleApiTest, SelfLoopYieldsNothing) {
  const Graph g = testing::PaperExampleGraph();
  PathEnumerator pe(g);
  CountingSink sink;
  const QueryStats stats = EnumerateTriggeredCycles(pe, 3, 3, 6, sink);
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(stats.counters.num_results, 0u);
}

TEST(CycleApiTest, HopBoundRespected) {
  const Graph g = CycleGraph(6);
  PathEnumerator pe(g);
  // The ring is one 6-cycle; asking through edge (0,1) with max 6 finds
  // it, with max 5 does not.
  CountingSink found;
  EnumerateTriggeredCycles(pe, 0, 1, 6, found);
  EXPECT_EQ(found.count(), 1u);
  CountingSink missed;
  EnumerateTriggeredCycles(pe, 0, 1, 5, missed);
  EXPECT_EQ(missed.count(), 0u);
  EXPECT_THROW(EnumerateTriggeredCycles(pe, 0, 1, 1, missed),
               std::logic_error);
}

}  // namespace
}  // namespace pathenum
