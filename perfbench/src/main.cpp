// perfbench: the repository's serving benchmark. See perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --data <dir> [--trace-out <file>] [--prepare]
//
// --prepare only generates the workload's dataset file. Otherwise the
// untraced run (--trace 0) measures the end-to-end metrics over a timed
// closed-loop window, and the traced run (--trace 1) replays the
// workload's inputs with spans around each layer's calls and reports the
// per-layer metrics. Both check sampled outputs against a single-threaded
// reference and end with the result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "graph/io.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;  // setup_s is the median of this many set-ups

void PrintRunInfo(const Config& cfg, const WindowResult& r) {
  std::printf(
      "{\"run\": {\"workload\": \"%s\", \"seed\": %lu, \"nproc\": %u, "
      "\"num_workers\": %u, \"build_type\": \"%s\", \"march_native\": %s, "
      "\"pathenum_obs\": %s, \"trace\": %d, "
      "\"workload.repeat_share\": %.6f, \"workload.zero_result_share\": "
      "%.6f}}\n",
      cfg.workload.c_str(), static_cast<unsigned long>(cfg.seed), cfg.nproc,
      cfg.nproc, PERFBENCH_BUILD_TYPE, PERFBENCH_MARCH_NATIVE ? "true" : "false",
      PERFBENCH_OBS ? "true" : "false", cfg.trace ? 1 : 0, r.repeat_share,
      r.queries > 0 ? static_cast<double>(r.zero_result) / r.queries : 0.0);
}

int RunUntraced(const Config& cfg, const WorkloadSpec& w) {
  const std::string path = GraphPath(cfg.data_dir, w);
  Inputs in;
  {
    const Graph g = pathenum::LoadBinary(path);
    in = MakeInputs(w, g, cfg.seed, cfg.seconds);
  }
  // The writer's delta stream is drawn against the base graph.
  std::unique_ptr<Graph> base;
  if (w.write_every > 0) {
    base = std::make_unique<Graph>(pathenum::LoadBinary(path));
  }

  std::vector<double> setup_s;
  std::vector<double> setup_heap_mb;
  Served served;
  for (int i = 0; i < kSetups; ++i) {
    served = Served();  // the previous set-up is torn down first
    const Clock::time_point t0 = Clock::now();
    served = SetUp(w, path, in, cfg.nproc);
    setup_s.push_back(MsSince(t0) / 1e3);
    setup_heap_mb.push_back(HeapInUseMb());
  }

  SpanRecorder off(false);
  Budget budget;
  budget.seconds = cfg.seconds;
  WindowResult r =
      w.front == FrontEnd::kAsync
          ? RunAsyncWindow(*served.async, w, in, base.get(), cfg.nproc, budget,
                           0, off)
          : RunBatchWindow(*served.batch, w, in, budget, 0, off);
  const double peak_mb = PeakRssMb();
  const uint64_t mismatches = CheckSamples(r.samples);
  served = Served();

  const uint64_t failed = r.failed + mismatches;
  const double secs = r.elapsed_ms / 1e3;
  Metrics m;
  m.Add("setup_s", Pct(setup_s, 50), "s");
  m.Add("qps", r.queries / secs, "queries/s");
  m.Add("latency_ms_p50", Pct(r.latency_ms, 50), "ms");
  m.Add("latency_ms_tail", Pct(r.latency_ms, w.tail_pct), "ms");
  m.Add("response_ms_p50", Pct(r.response_ms, 50), "ms");
  m.Add("results_per_s", r.paths / secs, "paths/s");
  m.Add("setup_heap_mb", Pct(setup_heap_mb, 50), "MiB");

  std::printf("workload %s: %lu queries in %lu requests over %.3f s; tail = "
              "p%g of %zu request latencies; %zu samples checked\n",
              w.name, static_cast<unsigned long>(r.queries),
              static_cast<unsigned long>(r.requests), secs, w.tail_pct,
              r.latency_ms.size(), r.samples.size());
  m.PrintTable();
  std::printf("  %-40s %16.6g %s\n", "peak_rss_mb", peak_mb, "MiB");
  std::printf("  %-40s %16.6g %s\n", "failed_frac",
              r.queries > 0 ? static_cast<double>(failed) / r.queries : 0.0,
              "ratio");
  if (!r.update_ms.empty()) {
    std::printf("  %-40s %16.6g %s\n  %-40s %16.6g %s\n", "update_ms_p50",
                Pct(r.update_ms, 50), "ms", "update_ms_p95",
                Pct(r.update_ms, 95), "ms");
  }
  PrintRunInfo(cfg, r);
  m.PrintResultLine(failed == 0, std::max<uint64_t>(r.queries, 1), failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  bool prepare = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") cfg.workload = value();
    else if (a == "--seed") cfg.seed = std::stoull(value());
    else if (a == "--seconds") cfg.seconds = std::stod(value());
    else if (a == "--trace") cfg.trace = value() != "0";
    else if (a == "--data") cfg.data_dir = value();
    else if (a == "--trace-out") cfg.trace_out = value();
    else if (a == "--prepare") prepare = true;
    else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  const WorkloadSpec* w = FindWorkload(cfg.workload);
  if (w == nullptr || cfg.data_dir.empty() || cfg.seconds <= 0) {
    std::fprintf(stderr, "usage: perfbench --workload <online_cold|"
                         "batch_cold|deep_k5|live_skew> --seed <n> --seconds "
                         "<s> --trace <0|1> --data <dir>\n");
    return 2;
  }
  cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
  try {
    if (prepare) {
      PrepareDataset(cfg.data_dir, *w);
      return 0;
    }
    return cfg.trace ? RunTraced(cfg, *w) : RunUntraced(cfg, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
