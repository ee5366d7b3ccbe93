// Command-line front end for the library — the shape a downstream user
// scripts against.
//
//   pathenum_cli query <edge-list> <s> <t> <k> [options]
//       --method=auto|dfs|join   strategy (default auto)
//       --limit=N                stop after N results
//       --time-ms=T              per-query time budget
//       --print=N                print the first N paths (default 5)
//       --threads=N              split the query across N engine workers
//   pathenum_cli generate <dataset> <scale> <out-file>
//       instantiate a catalog dataset (up, db, gg, ..., tm) as an edge list
//   pathenum_cli stats <edge-list>
//       print graph statistics and degree percentiles
#include <charconv>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/path_enum.h"
#include "engine/query_engine.h"
#include "graph/io.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/datasets.h"

using namespace pathenum;

namespace {

int Usage() {
  std::cerr
      << "usage:\n"
      << "  pathenum_cli query <edge-list> <s> <t> <k> [--method=auto|dfs|"
         "join] [--limit=N] [--time-ms=T] [--print=N] [--threads=N]\n"
      << "  pathenum_cli generate <dataset> <scale> <out-file>\n"
      << "  pathenum_cli stats <edge-list>\n";
  return 2;
}

// Parses all of `text` as a non-negative number. Unlike std::sto*, a
// leading '-' (which those wrap), trailing junk, NaN and inf are rejected,
// as is a value that overflows T. On failure, names the bad argument on
// stderr; the caller then exits with the usage code.
template <typename T>
bool ParseNumber(std::string_view text, const char* what, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = !text.starts_with('-') && ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::cerr << "invalid " << what << ": '" << text
              << "' (expected a non-negative number in range)\n";
    return false;
  }
  *out = value;
  return true;
}

// The summary both query paths print: the count, the method that ran (and,
// for a split run, the active worker count), the per-stage times, and a
// note when the run stopped early.
void PrintSummary(const QueryStats& stats, uint32_t workers) {
  std::cout << stats.counters.num_results << " paths in " << stats.total_ms
            << " ms (" << MethodName(stats.method);
  if (workers > 0) std::cout << ", " << workers << " workers";
  std::cout << "; index " << stats.index_ms << " ms, optimize "
            << stats.optimize_ms << " ms, enumerate " << stats.enumerate_ms
            << " ms)\n";
  if (stats.counters.timed_out) std::cout << "(stopped at time limit)\n";
  if (stats.counters.hit_result_limit) {
    std::cout << "(stopped at result limit)\n";
  }
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

int RunQuery(int argc, char** argv) {
  if (argc < 6) return Usage();
  Query query;
  if (!ParseNumber(argv[3], "source", &query.source) ||
      !ParseNumber(argv[4], "target", &query.target) ||
      !ParseNumber(argv[5], "hop constraint", &query.hops)) {
    return 2;
  }

  EnumOptions opts;
  size_t print_count = 5;
  uint32_t threads = 0;
  for (int i = 6; i < argc; ++i) {
    std::string value;
    const std::string arg = argv[i];
    if (ParseFlag(arg, "method", &value)) {
      if (value == "dfs") {
        opts.method = Method::kDfs;
      } else if (value == "join") {
        opts.method = Method::kJoin;
      } else if (value != "auto") {
        std::cerr << "unknown method: " << value << "\n";
        return 2;
      }
    } else if (ParseFlag(arg, "limit", &value)) {
      if (!ParseNumber(value, "--limit", &opts.result_limit)) return 2;
    } else if (ParseFlag(arg, "time-ms", &value)) {
      if (!ParseNumber(value, "--time-ms", &opts.time_limit_ms)) return 2;
    } else if (ParseFlag(arg, "print", &value)) {
      if (!ParseNumber(value, "--print", &print_count)) return 2;
    } else if (ParseFlag(arg, "threads", &value)) {
      if (!ParseNumber(value, "--threads", &threads)) return 2;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return 2;
    }
  }
  const Graph graph = LoadEdgeList(argv[2]);
  if (threads > 0) {
    // A one-query split batch: it plans like the serial path (so --method
    // applies) and builds with its options (so --time-ms bounds the build).
    QueryEngine engine(graph, {.num_workers = threads});
    BatchOptions batch;
    batch.query = opts;
    batch.split_branches = true;
    const BatchResult result = engine.CountBatch({&query, 1}, batch);
    if (!result.errors[0].empty()) {
      std::cerr << "error: " << result.errors[0] << "\n";
      return 1;
    }
    PrintSummary(result.stats[0], result.workers);
    return 0;
  }

  uint64_t total = 0;
  CallbackSink counting([&](std::span<const VertexId> p) {
    if (total++ < print_count) {
      for (size_t j = 0; j < p.size(); ++j) {
        std::cout << (j > 0 ? " -> " : "") << p[j];
      }
      std::cout << "\n";
    }
    return true;
  });
  PathEnumerator enumerator(graph);
  PrintSummary(enumerator.Run(query, counting, opts), /*workers=*/0);
  return 0;
}

int RunGenerate(int argc, char** argv) {
  if (argc != 5) return Usage();
  double scale = 0.0;  // 0 means PATHENUM_SCALE, else 1.0 (MakeDataset)
  if (!ParseNumber(argv[3], "scale", &scale)) return 2;
  const Graph g = MakeDataset(argv[2], scale);
  SaveEdgeList(g, argv[4]);
  std::cout << "wrote " << argv[4] << ": " << g.num_vertices()
            << " vertices, " << g.num_edges() << " edges\n";
  return 0;
}

int RunStats(int argc, char** argv) {
  if (argc != 3) return Usage();
  const Graph g = LoadEdgeList(argv[2]);
  std::vector<double> degrees;
  degrees.reserve(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    degrees.push_back(static_cast<double>(g.Degree(v)));
  }
  TablePrinter table({"metric", "value"});
  table.AddRow({"vertices", std::to_string(g.num_vertices())});
  table.AddRow({"edges", std::to_string(g.num_edges())});
  table.AddRow({"avg degree", FormatFixed(Summarize(degrees).mean, 2)});
  table.AddRow({"p50 degree", FormatFixed(PercentileInPlace(degrees, 50), 0)});
  table.AddRow({"p90 degree", FormatFixed(PercentileInPlace(degrees, 90), 0)});
  table.AddRow({"p99 degree", FormatFixed(PercentileInPlace(degrees, 99), 0)});
  table.AddRow({"max degree", FormatFixed(Summarize(degrees).max, 0)});
  table.AddRow({"memory (MB)",
                FormatFixed(static_cast<double>(g.MemoryBytes()) / 1048576.0,
                            2)});
  table.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  try {
    if (std::strcmp(argv[1], "query") == 0) return RunQuery(argc, argv);
    if (std::strcmp(argv[1], "generate") == 0) return RunGenerate(argc, argv);
    if (std::strcmp(argv[1], "stats") == 0) return RunStats(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return Usage();
}
