#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <thread>
#include <unordered_set>

#include "graph/io.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace perfbench {

namespace {

constexpr uint64_t kResponseTarget = 1000;  // the paper's response time
constexpr uint32_t kHotKeys = 256;
constexpr uint32_t kUpdateEdges = 8;
constexpr uint32_t kDeleteLag = 8;

/// V'×V' pairs with dist <= 3 from the §7.1 generator, deduplicated by
/// (s, t) and not in `exclude`.
std::vector<Query> DistinctPairs(const Graph& g, uint32_t count, uint32_t hops,
                                 uint64_t seed,
                                 const std::unordered_set<uint64_t>& exclude) {
  pathenum::QueryGenOptions gen;
  gen.source_class = pathenum::DegreeClass::kHigh;
  gen.target_class = pathenum::DegreeClass::kHigh;
  gen.hops = hops;
  gen.max_distance = 3;
  // Chunks of the generator's output, each from its own sub-seed, made on
  // all cores and joined in chunk order, so the result depends on the seed
  // alone.
  constexpr uint32_t kChunk = 256;
  const uint32_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<Query> out;
  std::unordered_set<uint64_t> seen;
  uint64_t next_chunk = 0;
  for (int round = 0; out.size() < count && round < 8; ++round) {
    const uint64_t chunks = (count - out.size()) / kChunk + 1;
    std::vector<std::vector<Query>> made(chunks);
    std::vector<std::thread> workers;
    for (uint32_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        pathenum::QueryGenScratch scratch;
        pathenum::QueryGenOptions opts = gen;
        opts.count = kChunk;
        for (uint64_t c = t; c < chunks; c += threads) {
          opts.seed = Mix(seed, next_chunk + c);
          made[c] = pathenum::GenerateQueries(g, opts, scratch);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    next_chunk += chunks;
    for (const auto& chunk : made) {
      for (const Query& q : chunk) {
        const uint64_t key = KeyOf({q.source, q.target, 0});
        if (exclude.count(key) != 0 || !seen.insert(key).second) continue;
        out.push_back(q);
        if (out.size() == count) return out;
      }
    }
  }
  return out;
}

const std::vector<WorkloadSpec> kWorkloads = {
    // name         dataset scale front          batch split write tail  pool/s every cap
    {"online_cold", "up", 0.5, FrontEnd::kAsync, 1, false, 0, 99.0, 750, 40, 24},
    {"batch_cold", "up", 0.5, FrontEnd::kBatch, 64, false, 0, 90.0, 750, 64, 32},
    {"deep_k5", "ep", 1.0, FrontEnd::kBatch, 1, true, 0, 90.0, 40, 24, 6},
    {"live_skew", "up", 0.5, FrontEnd::kAsync, 1, false, 500, 99.9, 0, 4000, 32},
};

}  // namespace

uint64_t KeyOf(const Query& q) {
  return (static_cast<uint64_t>(q.source) << 32) ^ q.target ^
         (static_cast<uint64_t>(q.hops) << 58);
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string GraphPath(const std::string& data_dir, const WorkloadSpec& w) {
  char scale[32];
  std::snprintf(scale, sizeof(scale), "%g", w.scale);
  return data_dir + "/" + w.dataset + "_" + scale + ".bin";
}

void PrepareDataset(const std::string& data_dir, const WorkloadSpec& w) {
  const std::string path = GraphPath(data_dir, w);
  if (std::filesystem::exists(path)) return;
  std::filesystem::create_directories(data_dir);
  const Graph g = pathenum::MakeDataset(w.dataset, w.scale);
  const std::string tmp = path + ".tmp";
  pathenum::SaveBinary(g, tmp);
  std::filesystem::rename(tmp, path);
}

Query Inputs::At(uint64_t i) const {
  if (zipf_cdf.empty()) return pool[i];
  const double u = static_cast<double>(Mix(seed ^ 0x5a17, i) >> 11) * 0x1.0p-53;
  const size_t r = std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
                   zipf_cdf.begin();
  return pool[std::min(r, pool.size() - 1)];
}

uint64_t Inputs::MaxQueries() const {
  return zipf_cdf.empty() ? pool.size() : UINT64_MAX;
}

Inputs MakeInputs(const WorkloadSpec& w, const Graph& g, uint64_t seed,
                  double seconds) {
  Inputs in;
  in.seed = seed;
  const std::string name = w.name;
  std::unordered_set<uint64_t> none;
  if (name == "live_skew") {
    in.opts.result_limit = std::numeric_limits<uint64_t>::max();
    // The hot set is part of the workload, like the graph: it does not
    // depend on the seed, which drives the Zipf draws and the delta stream.
    // Zipf(1.0) puts half the reads on ten keys, so a per-seed hot set
    // would make each seed's miss rate and paths per read those of a
    // handful of keys.
    in.pool = DistinctPairs(g, kHotKeys, 4, 0x407e5, none);
    // Zipf(1.0) by rank over the hot keys.
    double total = 0.0;
    for (size_t r = 0; r < in.pool.size(); ++r) total += 1.0 / (r + 1.0);
    double acc = 0.0;
    for (size_t r = 0; r < in.pool.size(); ++r) {
      acc += 1.0 / (r + 1.0) / total;
      in.zipf_cdf.push_back(acc);
    }
    in.warm = in.pool;  // warm-up fills the result cache with every key
    return in;
  }
  const uint32_t hops = name == "deep_k5" ? 5 : 6;
  in.opts.result_limit = name == "deep_k5" ? 1000000 : 1000;
  const auto count = static_cast<uint32_t>(
      std::max(1.0, w.pool_per_second * seconds) + w.batch);
  in.pool = DistinctPairs(g, count, hops, seed, none);
  std::unordered_set<uint64_t> used;
  for (const Query& q : in.pool) used.insert(KeyOf({q.source, q.target, 0}));
  const uint32_t warm = name == "deep_k5" ? 2 : 8;
  // Warm-up queries do not depend on the seed, so set-up time does not
  // vary with it.
  in.warm = DistinctPairs(g, warm, hops, 0x5e7a9, used);
  if (name == "batch_cold") {
    // k drawn from {4, 5, 6}.
    for (size_t i = 0; i < in.pool.size(); ++i) {
      in.pool[i].hops = 4 + static_cast<uint32_t>(Mix(seed ^ 0xb, i) % 3);
    }
    for (size_t i = 0; i < in.warm.size(); ++i) {
      in.warm[i].hops = 4 + static_cast<uint32_t>(i % 3);
    }
  }
  return in;
}

DeltaStream::DeltaStream(const Graph& base, uint64_t seed)
    : base_(base), seed_(seed ^ 0xde17a) {}

GraphDelta DeltaStream::Next() {
  GraphDelta delta;
  const VertexId n = base_.num_vertices();
  std::vector<std::pair<VertexId, VertexId>> inserted;
  while (inserted.size() < kUpdateEdges) {
    const uint64_t r = Mix(seed_, drawn_++);
    const auto u = static_cast<VertexId>((r & 0xffffffffULL) % n);
    const auto v = static_cast<VertexId>((r >> 32) % n);
    if (u == v || base_.HasEdge(u, v) || live_.count({u, v}) != 0) continue;
    live_.insert({u, v});
    inserted.emplace_back(u, v);
    delta.Insert(u, v);
  }
  if (history_.size() == kDeleteLag) {
    for (const auto& [u, v] : history_.front()) {
      delta.Delete(u, v);
      live_.erase({u, v});
    }
    history_.pop_front();
  }
  history_.push_back(std::move(inserted));
  return delta;
}

namespace {

/// Snapshots by version, so a sampled ticket is checked on exactly the
/// snapshot it observed. Keeps the most recent few.
class SnapshotRing {
 public:
  void Put(std::shared_ptr<const GraphView> snap) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      snaps_[snap->version()] = std::move(snap);
      while (snaps_.size() > 64) snaps_.erase(snaps_.begin());
    }
    cv_.notify_all();
  }
  /// Waits until `version` was published into the ring.
  std::shared_ptr<const GraphView> Get(uint64_t version) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return snaps_.count(version) != 0 ||
             (!snaps_.empty() && snaps_.begin()->first > version);
    });
    const auto it = snaps_.find(version);
    return it == snaps_.end() ? nullptr : it->second;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, std::shared_ptr<const GraphView>> snaps_;
};

struct Accumulator {
  std::mutex mu;
  WindowResult r;

  void Merge(WindowResult& local) {
    const std::lock_guard<std::mutex> lock(mu);
    r.requests += local.requests;
    r.queries += local.queries;
    r.failed += local.failed;
    r.paths += local.paths;
    r.zero_result += local.zero_result;
    const auto append = [](std::vector<double>& dst, std::vector<double>& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    append(r.latency_ms, local.latency_ms);
    append(r.response_ms, local.response_ms);
    append(r.results_per_query, local.results_per_query);
    append(r.submit_us, local.submit_us);
    append(r.queue_depth, local.queue_depth);
    for (Sample& s : local.samples) r.samples.push_back(std::move(s));
  }
};

void NoteQuery(WindowResult& r, const MeasuringSink& sink, QueryState state) {
  ++r.queries;
  if (!Delivered(state)) ++r.failed;
  r.paths += sink.count();
  r.results_per_query.push_back(static_cast<double>(sink.count()));
  if (sink.count() == 0) {
    ++r.zero_result;
  } else {
    r.response_ms.push_back(sink.response_ms());
  }
}

bool Sampled(const WorkloadSpec& w, const Inputs& in, uint64_t i) {
  return w.sample_cap > 0 && Mix(in.seed ^ 0x5a3, i) % w.sample_every == 0;
}

double RepeatShare(const Inputs& in, uint64_t first, uint64_t issued) {
  if (issued == 0) return 0.0;
  std::unordered_set<uint64_t> keys;
  for (uint64_t i = 0; i < issued; ++i) keys.insert(KeyOf(in.At(first + i)));
  return 1.0 - static_cast<double>(keys.size()) / static_cast<double>(issued);
}

}  // namespace

WindowResult RunAsyncWindow(AsyncEngine& engine, const WorkloadSpec& w,
                            const Inputs& in, const Graph* base,
                            uint32_t clients, Budget budget, uint64_t first,
                            SpanRecorder& rec) {
  const uint64_t limit =
      std::min(budget.max_requests, in.MaxQueries() - std::min(first, in.MaxQueries()));
  SnapshotRing ring;
  ring.Put(engine.Snapshot());
  std::atomic<uint64_t> next{0};
  std::atomic<uint32_t> sampled{0};
  Accumulator acc;

  // Writer: one SubmitUpdate per `write_every` submissions.
  std::mutex wmu;
  std::condition_variable wcv;
  bool stop_writer = false;
  std::vector<double> update_ms;
  std::thread writer;
  if (w.write_every > 0) {
    writer = std::thread([&] {
      DeltaStream deltas(*base, in.seed + first);
      uint64_t applied = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(wmu);
          wcv.wait(lock, [&] {
            return stop_writer ||
                   next.load() / w.write_every > applied;
          });
          if (stop_writer) return;
        }
        const GraphDelta delta = deltas.Next();
        const Clock::time_point t0 = Clock::now();
        engine.SubmitUpdate(delta);
        update_ms.push_back(MsSince(t0));
        ring.Put(engine.Snapshot());
        ++applied;
      }
    });
  }

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(budget.seconds));
  pathenum::SubmitOptions sopts;
  sopts.query = in.opts;
  sopts.split_branches = w.split;
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      WindowResult local;
      while (Clock::now() < deadline) {
        const uint64_t i = next.fetch_add(1);
        if (i >= limit) break;
        const Query q = in.At(first + i);
        const bool sample = Sampled(w, in, first + i) &&
                            sampled.fetch_add(1) < w.sample_cap;
        const uint64_t qid = first + i + 1;
        const uint64_t root = rec.Open("request", 0, qid);
        const uint64_t sub = rec.Open("live.async.submit", root, qid);
        const Clock::time_point t0 = Clock::now();
        auto sink = std::make_unique<MeasuringSink>(t0, kResponseTarget, sample);
        const pathenum::QueryTicket ticket = engine.Submit(q, *sink, sopts);
        local.submit_us.push_back(MsSince(t0) * 1e3);
        rec.Close(sub);
        if (w.write_every > 0 && (i + 1) % w.write_every == 0) {
          { const std::lock_guard<std::mutex> lock(wmu); }
          wcv.notify_one();
        }
        if (rec.enabled() && i % 16 == 0) {
          local.queue_depth.push_back(
              static_cast<double>(engine.stats().queue_depth));
        }
        std::shared_ptr<const GraphView> snap;
        if (sample) snap = ring.Get(ticket.snapshot_version());
        const uint64_t wait = rec.Open("live.async.wait", root, qid);
        ticket.Wait();
        local.latency_ms.push_back(MsSince(t0));
        rec.Close(wait);
        rec.Close(root);
        ++local.requests;
        NoteQuery(local, *sink, ticket.state());
        if (sample) {
          Sample s;
          s.query = q;
          s.snapshot = snap != nullptr ? snap : engine.Snapshot();
          s.opts = in.opts;
          s.state = ticket.state();
          s.delivered = sink->count();
          if (snap == nullptr) {
            s.validated = true;
            s.path_error = "snapshot of the ticket's version not retained";
          }
          s.sink = std::move(sink);
          local.samples.push_back(std::move(s));
        }
      }
      acc.Merge(local);
    });
  }
  for (std::thread& t : threads) t.join();
  acc.r.elapsed_ms = MsSince(start);
  if (writer.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(wmu);
      stop_writer = true;
    }
    wcv.notify_one();
    writer.join();
  }
  acc.r.update_ms = std::move(update_ms);
  acc.r.repeat_share = RepeatShare(in, first, std::min(next.load(), limit));
  return std::move(acc.r);
}

WindowResult RunBatchWindow(QueryEngine& engine, const WorkloadSpec& w,
                            const Inputs& in, Budget budget, uint64_t first,
                            SpanRecorder& rec) {
  WindowResult r;
  const auto snapshot = std::make_shared<const GraphView>(engine.view());
  pathenum::BatchOptions bopts;
  bopts.query = in.opts;
  bopts.split_branches = w.split;
  const uint64_t pool = in.MaxQueries() - std::min(first, in.MaxQueries());
  uint64_t issued = 0;
  uint32_t sampled = 0;
  double paused_ms = 0.0;  // path validation between calls, not measured
  const Clock::time_point start = Clock::now();
  std::vector<Query> queries(w.batch);
  std::vector<std::unique_ptr<MeasuringSink>> sinks(w.batch);
  std::vector<PathSink*> sink_ptrs(w.batch);
  std::vector<bool> sample(w.batch);
  while (MsSince(start) - paused_ms < budget.seconds * 1e3 &&
         r.requests < budget.max_requests && issued + w.batch <= pool) {
    const uint64_t qid = first + issued + 1;
    const uint64_t root = rec.Open("request", 0, qid);
    const Clock::time_point t0 = Clock::now();
    for (uint32_t j = 0; j < w.batch; ++j) {
      queries[j] = in.At(first + issued + j);
      sample[j] = Sampled(w, in, first + issued + j) && sampled < w.sample_cap;
      if (sample[j]) ++sampled;
      sinks[j] = std::make_unique<MeasuringSink>(t0, kResponseTarget, sample[j]);
      sink_ptrs[j] = sinks[j].get();
    }
    const uint64_t run = rec.Open("engine.batch.run", root, qid);
    const pathenum::BatchResult res = engine.RunBatch(queries, sink_ptrs, bopts);
    r.latency_ms.push_back(MsSince(t0));
    rec.Close(run);
    rec.Close(root);
    ++r.requests;
    issued += w.batch;
    const Clock::time_point pause = Clock::now();
    for (uint32_t j = 0; j < w.batch; ++j) {
      NoteQuery(r, *sinks[j], res.states[j]);
      if (!sample[j]) continue;
      Sample s;
      s.query = queries[j];
      s.snapshot = snapshot;
      s.opts = in.opts;
      s.state = res.states[j];
      s.delivered = sinks[j]->count();
      if (sinks[j]->count() > 100000) {
        // Large result sets are validated now and dropped, so memory does
        // not grow with the sample.
        s.validated = true;
        s.path_error = ValidatePaths(*snapshot, s.query, *sinks[j]);
      } else {
        s.sink = std::move(sinks[j]);
      }
      r.samples.push_back(std::move(s));
    }
    paused_ms += MsSince(pause);
  }
  r.elapsed_ms = MsSince(start) - paused_ms;
  r.repeat_share = RepeatShare(in, first, issued);
  return r;
}

Served SetUp(const WorkloadSpec& w, const std::string& graph_path,
             const Inputs& in, uint32_t workers) {
  Served s;
  Graph g = pathenum::LoadBinary(graph_path);
  if (w.front == FrontEnd::kAsync) {
    pathenum::AsyncEngineOptions opts;
    opts.num_workers = workers;
    s.async = std::make_unique<AsyncEngine>(std::move(g), opts);
    // Warm-up: every warm query once, all outstanding together.
    std::vector<std::unique_ptr<pathenum::CountingSink>> sinks;
    std::vector<pathenum::QueryTicket> tickets;
    for (const Query& q : in.warm) {
      sinks.push_back(std::make_unique<pathenum::CountingSink>());
      tickets.push_back(s.async->Submit(q, *sinks.back(), in.opts));
    }
    for (const auto& t : tickets) t.Wait();
    return s;
  }
  s.graph = std::make_unique<Graph>(std::move(g));
  pathenum::EngineOptions opts;
  opts.num_workers = workers;
  opts.enable_cache = true;
  s.batch = std::make_unique<QueryEngine>(*s.graph, opts);
  pathenum::BatchOptions bopts;
  bopts.query = in.opts;
  bopts.split_branches = w.split;
  if (w.split) {
    for (const Query& q : in.warm) s.batch->CountBatch({&q, 1}, bopts);
  } else {
    s.batch->CountBatch(in.warm, bopts);
  }
  return s;
}

}  // namespace perfbench
