#include "engine/query_engine.h"

#include <algorithm>
#include <unordered_map>

#include "util/timer.h"

namespace pathenum {

namespace {

/// Delivers one run's paths to every sink of a deduplicated query group.
/// Each sink may stop independently (and is then never called again, per
/// the PathSink contract); the enumeration continues while any sink wants
/// more. Per-sink delivery counts and stop flags let the engine report
/// each duplicate's stats exactly as a standalone run would have.
class FanoutSink : public PathSink {
 public:
  explicit FanoutSink(std::vector<PathSink*> sinks)
      : sinks_(std::move(sinks)),
        active_(sinks_.size(), 1),
        delivered_(sinks_.size(), 0) {}

  bool OnPath(std::span<const VertexId> path) override {
    bool any = false;
    for (size_t i = 0; i < sinks_.size(); ++i) {
      if (!active_[i]) continue;
      ++delivered_[i];
      if (sinks_[i]->OnPath(path)) {
        any = true;
      } else {
        active_[i] = 0;
      }
    }
    return any;
  }

  /// Block delivery: each still-active duplicate consumes the block
  /// through its own OnBlock (order per sink preserved). The fanned-out
  /// run continues while any sink wants more, so the outer consumed count
  /// is the maximum share any sink took — exactly where per-path emission
  /// would have stopped (the path on which the last active sink refused).
  BlockResult OnBlock(const PathBlockView& block) override {
    uint64_t consumed = 0;
    bool any = false;
    for (size_t i = 0; i < sinks_.size(); ++i) {
      if (!active_[i]) continue;
      const BlockResult r = sinks_[i]->OnBlock(block);
      delivered_[i] += r.consumed;
      consumed = std::max(consumed, r.consumed);
      if (r.stop || r.consumed < block.count) {
        active_[i] = 0;
      } else {
        any = true;
      }
    }
    return {consumed, !any};
  }

  /// Paths handed to sink `i` (counts the delivery it declined on).
  uint64_t delivered(size_t i) const { return delivered_[i]; }
  bool stopped(size_t i) const { return active_[i] == 0; }

 private:
  std::vector<PathSink*> sinks_;
  std::vector<uint8_t> active_;
  std::vector<uint64_t> delivered_;
};

/// A representative query plus the indices of its in-batch duplicates, with
/// an enqueue priority (cache hits first).
struct TaskGroup {
  size_t rep = 0;
  std::vector<size_t> extra;
  uint32_t priority = 2;  // 0 result-cache hit, 1 index-cache hit, 2 miss
  /// Feeds every member's sink from the one run; null without duplicates.
  std::unique_ptr<FanoutSink> fan;
};

/// One group per query, or — with `dedup` — one per distinct (s, t, k).
std::vector<TaskGroup> GroupQueries(std::span<const Query> queries,
                                    bool dedup) {
  std::vector<TaskGroup> groups;
  groups.reserve(queries.size());
  std::unordered_map<CacheKey, size_t, CacheKeyHash> seen;
  if (dedup) seen.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    if (dedup) {
      const auto [it, inserted] =
          seen.emplace(CacheKey{q.source, q.target, q.hops, 0}, groups.size());
      if (!inserted) {
        groups[it->second].extra.push_back(i);
        continue;
      }
    }
    groups.push_back({i, {}, 2, nullptr});
  }
  return groups;
}

/// One RunBatch's TaskDone: each finished group writes its members' slots
/// of the batch result. Groups finish on distinct workers into disjoint
/// slots; the caller reads them after Scheduler::Drain.
class BatchRun final : public TaskDone {
 public:
  BatchRun(std::vector<TaskGroup> groups, BatchResult& result,
           obs::ShardedCounter& queries_run)
      : groups(std::move(groups)), result_(result), queries_run_(queries_run) {}

  void Finish(Task& task, const QueryStats& stats, std::string error,
              QueryState state) override {
    const TaskGroup& group = groups[task.slot];
    const bool ran =
        DeliveredResults(state) && !stats.counters.oracle_rejected;
    for (size_t m = 0; m <= group.extra.size(); ++m) {
      const size_t qi = m == 0 ? group.rep : group.extra[m - 1];
      QueryStats mine = stats;
      if (group.fan != nullptr && ran) {
        // Each duplicate reports the shared run's stats, adjusted to what
        // its own sink observed: a sink that stopped early looks exactly
        // like a standalone sink-stopped run.
        mine.counters.num_results = group.fan->delivered(m);
        if (group.fan->stopped(m)) {
          mine.counters.stopped_by_sink = true;
          mine.counters.hit_result_limit = false;
        }
      }
      result_.stats[qi] = mine;
      result_.states[qi] = ran ? mine.counters.TerminalState() : state;
      result_.errors[qi] = error;
    }
    // Distributing the shared run to the duplicates' stats is the batch
    // path's merge stage.
    if (group.fan != nullptr && ran) task.span.Mark(obs::SpanStage::kMerge);
    task.span.Finish(result_.states[group.rep]);
    if (ran) queries_run_.Inc(group.extra.size() + 1);
  }

  std::vector<TaskGroup> groups;

 private:
  BatchResult& result_;
  obs::ShardedCounter& queries_run_;
};

}  // namespace

QueryEngine::QueryEngine(const GraphView& view, const EngineOptions& opts)
    : view_(view),
      cache_(opts.enable_cache ? std::make_unique<IndexCache>(opts.cache)
                               : nullptr),
      scheduler_(view_, opts.num_workers) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  const std::string label =
      "engine=\"" + std::to_string(reg.NextInstanceId()) + "\"";
  reg.RegisterCounter(this, "pathenum_engine_batches_total", label,
                      &batches_run_);
  reg.RegisterCounter(this, "pathenum_engine_oracle_rejects_total", label,
                      &oracle_rejects_);
  reg.RegisterGauge(this, "pathenum_engine_workers", label, [this] {
    return static_cast<double>(scheduler_.num_workers());
  });
  // Context-derived gauge: reading races RunBatch exactly like Stats()
  // does — both are caller-serialized operator surfaces.
  reg.RegisterGauge(this, "pathenum_engine_scratch_bytes", label, [this] {
    return static_cast<double>(scheduler_.ScratchBytes());
  });
  reg.RegisterGauge(this, "pathenum_engine_queries_run", label, [this] {
    return static_cast<double>(queries_run_.Value());
  });
}

QueryEngine::~QueryEngine() {
  obs::MetricRegistry::Global().UnregisterOwner(this);
}

void QueryEngine::InvalidateCaches() {
  // Align the cache's version with the bound view so publications resume
  // immediately after the clear.
  if (cache_ != nullptr) cache_->Clear(view_.version());
}

void QueryEngine::RebindGraph(const Graph& g) {
  // A live oracle stays attached: its epochs are keyed on snapshot version
  // AND base identity, so against an unrelated graph it simply never
  // matches (no claims) until the engine returns to the oracle's stream.
  view_ = GraphView(g);
  InvalidateCaches();
}

BatchResult QueryEngine::RunBatch(const GraphView& view,
                                  std::span<const Query> queries,
                                  std::span<PathSink* const> sinks,
                                  const BatchOptions& opts) {
  if (!view.SameSnapshotAs(view_)) {
    // A base-graph change without a version advance is a swap to an
    // unrelated graph (a forward move within one snapshot lineage — e.g.
    // a compaction epoch — always advances the version): the cached
    // entries describe the old graph, so drop them all. Forward moves are
    // governed by the version guards in RunBatch proper. Identity is the
    // base's uid, never its address — a recycled allocation must not pass
    // for the graph the entries were built on.
    if (cache_ != nullptr && view.base().uid() != view_.base().uid() &&
        view.version() <= view_.version()) {
      cache_->Clear(view.version());
    }
    view_ = view;
  }
  return RunBatch(queries, sinks, opts);
}

BatchResult QueryEngine::RunBatch(std::span<const Query> queries,
                                  std::span<PathSink* const> sinks,
                                  const BatchOptions& opts) {
  PATHENUM_CHECK_MSG(queries.size() == sinks.size(),
                     "one sink per query required");
  BatchResult result;
  result.stats.resize(queries.size());
  result.errors.resize(queries.size());
  result.states.resize(queries.size(), QueryState::kOk);
  batches_run_.Inc();
  IndexCache* cache =
      (opts.use_cache && cache_ != nullptr) ? cache_.get() : nullptr;
  if (cache != nullptr && view_.version() > cache->version()) {
    // The snapshot advanced past the cache without an epoch invalidation
    // (IndexCache::BeginEpoch) — an epoch-unaware caller. Degrade to a
    // versioned full clear rather than risk replaying entries the skipped
    // update(s) may have staled.
    cache->Clear(view_.version());
  }
  const IndexCacheStats before =
      cache != nullptr ? cache->Stats() : IndexCacheStats{};
  Timer wall;

  // Split queries run one at a time, each into its own sink: never
  // collapsed.
  std::vector<TaskGroup> groups =
      GroupQueries(queries, opts.dedup_identical && !opts.split_branches);

  // Cache-aware scheduling: replayable results first, then cached
  // indexes, then misses — hits clear the queue fast and each miss builds
  // solo on the worker that claims it.
  if (cache != nullptr) {
    for (TaskGroup& g : groups) {
      const Query& q = queries[g.rep];
      const CacheKey rkey{q.source, q.target, q.hops,
                          ResultOptionsFingerprint(opts.query)};
      if (cache->options().max_result_bytes > 0 &&
          cache->HasResult(rkey, view_.version())) {
        g.priority = 0;
        continue;
      }
      const CacheKey ikey{
          q.source, q.target, q.hops,
          IndexOptionsFingerprint(
              PathEnumerator::BuildOptionsFor(q, opts.query))};
      if (cache->PeekIndex(ikey, view_.version()) != nullptr) g.priority = 1;
    }
    std::stable_sort(groups.begin(), groups.end(),
                     [](const TaskGroup& a, const TaskGroup& b) {
                       return a.priority < b.priority;
                     });
  }
  for (TaskGroup& g : groups) {
    if (g.extra.empty()) continue;
    std::vector<PathSink*> fan_sinks{sinks[g.rep]};
    for (const size_t dup : g.extra) fan_sinks.push_back(sinks[dup]);
    g.fan = std::make_unique<FanoutSink>(std::move(fan_sinks));
  }

  // The oracle epoch is pinned per batch, so rejection follows rebinds and
  // publishes; the ValidFor gate (exact version + base uid) turns every
  // mismatch into "no claims" — a racing publish can never produce a wrong
  // rejection.
  LiveDistanceOracle::EpochRef epoch =
      live_oracle_ != nullptr ? live_oracle_->ForVersion(view_.version())
                              : LiveDistanceOracle::EpochRef();
  if (!epoch.ValidFor(view_)) epoch = LiveDistanceOracle::EpochRef();

  // A plain batch enqueues every group at once and idle workers claim
  // them; a split batch enqueues one query at a time, which the claiming
  // worker leads and the idle workers help. Each group passes the
  // scheduler's gate first: a refused one — every duplicate included —
  // completes without taking a queue slot.
  const auto run =
      std::make_shared<BatchRun>(std::move(groups), result, queries_run_);
  const auto snapshot = std::make_shared<const GraphView>(view_);
  const size_t step = opts.split_branches ? 1 : run->groups.size();
  size_t admitted = 0;
  for (size_t first = 0; first < run->groups.size(); first += step) {
    {
      Scheduler::LockedQueue queue = scheduler_.Lock();
      for (size_t gi = first; gi < first + step; ++gi) {
        const TaskGroup& group = run->groups[gi];
        Task task;
        task.query = queries[group.rep];
        task.sink = group.fan != nullptr ? group.fan.get() : sinks[group.rep];
        task.opts = opts.query;
        task.split = opts.split_branches;
        task.cache = cache;
        task.snapshot = snapshot;
        task.done = run;
        task.slot = gi;
        task.span.Begin(task.query.source, task.query.target,
                        task.query.hops);
        const QueryState verdict = queue.Gate(task, epoch);
        if (verdict == QueryState::kOk) {
          queue.Push(std::move(task));
          ++admitted;
        } else if (verdict == QueryState::kUnsatisfiable) {
          oracle_rejects_.Inc(1 + group.extra.size());
        }
      }
    }
    scheduler_.Drain();
  }
  result.workers = opts.split_branches
                       ? scheduler_.num_workers()
                       : static_cast<uint32_t>(std::clamp<size_t>(
                             admitted, 1, scheduler_.num_workers()));
  result.wall_ms = wall.ElapsedMs();
  if (cache != nullptr) result.cache = cache->Stats() - before;
  return result;
}

BatchResult QueryEngine::CountBatch(std::span<const Query> queries,
                                    const BatchOptions& opts) {
  std::vector<CountingSink> counting(queries.size());
  std::vector<PathSink*> sinks(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) sinks[i] = &counting[i];
  return RunBatch(queries, sinks, opts);
}

QueryEngine::EngineStats QueryEngine::Stats() const {
  EngineStats s;
  s.scratch_bytes = scheduler_.ScratchBytes();
  s.queries_run = queries_run_.Value();
  s.batches_run = batches_run_.Value();
  s.oracle_rejects = oracle_rejects_.Value();
  return s;
}

}  // namespace pathenum
