#include "live/async_engine.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "engine/split_query.h"
#include "util/fault_injection.h"

namespace pathenum {

// ---------------------------------------------------------------------------
// QueryTicket
// ---------------------------------------------------------------------------

const QueryStats& QueryTicket::Wait() const {
  PATHENUM_CHECK_MSG(state_ != nullptr, "waiting on an invalid ticket");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->stats;
}

bool QueryTicket::Done() const {
  if (state_ == nullptr) return false;
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

const std::string& QueryTicket::error() const {
  PATHENUM_CHECK_MSG(state_ != nullptr, "querying an invalid ticket");
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->error;
}

QueryState QueryTicket::state() const {
  PATHENUM_CHECK_MSG(state_ != nullptr, "querying an invalid ticket");
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->query_state;
}

void QueryTicket::Cancel() const {
  PATHENUM_CHECK_MSG(state_ != nullptr, "cancelling an invalid ticket");
  state_->cancel.Cancel();
}

uint64_t QueryTicket::snapshot_version() const {
  PATHENUM_CHECK_MSG(state_ != nullptr, "querying an invalid ticket");
  return state_->snapshot_version;
}

obs::QuerySpanData QueryTicket::span() const {
  PATHENUM_CHECK_MSG(state_ != nullptr, "querying an invalid ticket");
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->span_data;
}

// ---------------------------------------------------------------------------
// AsyncEngine
// ---------------------------------------------------------------------------

AsyncEngine::AsyncEngine(Graph base, const AsyncEngineOptions& opts)
    : opts_(opts),
      snapshots_(std::move(base), opts.snapshot),
      pool_(opts.num_workers) {
  if (opts_.max_queue == 0) opts_.max_queue = 1;
  if (opts_.enable_oracle) {
    // The oracle labels the version-0 base and then rides every update
    // epoch inside SnapshotManager::Prepare/Publish, so its claims stay in
    // lockstep with whatever snapshot a submission captures.
    oracle_ = std::make_unique<LiveDistanceOracle>(
        snapshots_.Current()->base(), opts_.oracle);
    snapshots_.AttachOracle(oracle_.get());
  }
  if (opts_.enable_cache) {
    cache_ = std::make_unique<IndexCache>(opts_.cache);
  }
  const std::shared_ptr<const GraphView> snapshot = snapshots_.Current();
  contexts_.reserve(pool_.num_workers());
  for (uint32_t w = 0; w < pool_.num_workers(); ++w) {
    contexts_.push_back(std::make_unique<QueryContext>(*snapshot));
  }
  // One long-running parallel region hosts every worker loop; the runner
  // thread exists only to own the blocking RunOnAllWorkers call.
  runner_ = std::thread(
      [this] { pool_.RunOnAllWorkers([this](uint32_t w) { WorkerLoop(w); }); });

#if PATHENUM_OBS
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  const std::string label =
      "engine=\"" + std::to_string(reg.NextInstanceId()) + "\"";
  const auto counter = [&](const char* name, obs::ShardedCounter* c) {
    reg.RegisterCounter(this, name, label, c);
  };
  counter("pathenum_async_submitted_total", &submitted_);
  counter("pathenum_async_executed_total", &executed_);
  counter("pathenum_async_queue_rejects_total", &queue_rejects_);
  counter("pathenum_async_sheds_total", &sheds_);
  counter("pathenum_async_cancelled_before_run_total", &cancelled_before_run_);
  counter("pathenum_async_oracle_rejects_total", &oracle_rejects_);
  reg.RegisterGauge(this, "pathenum_async_queue_depth", label, [this] {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    return static_cast<uint64_t>(queue_.size());
  });
  reg.RegisterGauge(this, "pathenum_async_snapshot_version", label,
                    [this] { return snapshots_.version(); });
  reg.RegisterGauge(this, "pathenum_async_workers", label, [this] {
    return static_cast<uint64_t>(pool_.num_workers());
  });
#endif
}

AsyncEngine::~AsyncEngine() {
  Shutdown();
  obs::MetricRegistry::Global().UnregisterOwner(this);
}

QueryTicket AsyncEngine::Submit(const Query& q, PathSink& sink,
                                const EnumOptions& opts) {
  return Submit(q, sink, SubmitOptions{.query = opts});
}

QueryTicket AsyncEngine::TrySubmit(const Query& q, PathSink& sink,
                                   const EnumOptions& opts) {
  return TrySubmit(q, sink, SubmitOptions{.query = opts});
}

namespace {

/// Wires a ticket's cancel token into its submission: the caller's token is
/// shared when one was provided (ticket.Cancel() fires it), otherwise the
/// ticket gets a private token the enumeration observes through opts.
void WireCancel(CancelToken& ticket_cancel, EnumOptions& opts) {
  if (opts.cancel.can_cancel()) {
    ticket_cancel = opts.cancel;
  } else {
    ticket_cancel = CancelToken::Cancellable();
    opts.cancel = ticket_cancel;
  }
}

}  // namespace

QueryTicket AsyncEngine::Submit(const Query& q, PathSink& sink,
                                const SubmitOptions& opts) {
  return Admit(q, sink, opts, /*block_when_full=*/true, nullptr);
}

QueryTicket AsyncEngine::TrySubmit(const Query& q, PathSink& sink,
                                   const SubmitOptions& opts,
                                   double* retry_after_ms) {
  return Admit(q, sink, opts, /*block_when_full=*/false, retry_after_ms);
}

QueryTicket AsyncEngine::Admit(const Query& q, PathSink& sink,
                               const SubmitOptions& opts, bool block_when_full,
                               double* retry_after_ms) {
  auto state = std::make_shared<QueryTicket::State>();
  Submission task;
  task.query = q;
  task.sink = &sink;
  task.opts = opts.query;
  task.split = opts.split_branches;
  task.state = state;
  WireCancel(state->cancel, task.opts);
  task.span.Begin(q.source, q.target, q.hops);
  bool unsat = false;
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    for (;;) {
      if (shutdown_) {
        if (!block_when_full) {
          queue_rejects_.Inc();
          return QueryTicket();
        }
        Complete(*state, QueryStats{}, "engine is shut down",
                 QueryState::kRejected);
        return QueryTicket(std::move(state));
      }
      // The snapshot (and its oracle epoch) is captured while holding the
      // queue lock so ticket version order is consistent with admission
      // order; SubmitUpdate publishes outside this lock, so a submission
      // observes either the old or the new snapshot — never a half-
      // published one, and never an oracle epoch from a different version.
      const SnapshotManager::Published pub = snapshots_.CurrentPublished();
      task.snapshot = pub.snapshot;
      state->snapshot_version = task.snapshot->version();
      // The engine's one rejection gate, ahead of the full-queue policy:
      // a certified-unsatisfiable submission never occupies a queue slot,
      // so it can neither shed useful queued work nor wait for room.
      if (pub.oracle.Rejects(q.source, q.target, q.hops)) {
        oracle_rejects_.Inc();
        unsat = true;
        break;
      }
      if (queue_.size() < opts_.max_queue) break;
      if (opts_.shed_policy == AsyncEngineOptions::ShedPolicy::kCancelOldest) {
        ShedOldestLocked();  // make room; this submission is admitted
        break;
      }
      if (!block_when_full) {
        queue_rejects_.Inc();
        if (retry_after_ms != nullptr) *retry_after_ms = RetryAfterLockedMs();
        return QueryTicket();
      }
      queue_not_full_.wait(lock, [&] {
        return shutdown_ || queue_.size() < opts_.max_queue;
      });
      // Room may come with a newer snapshot: capture it and gate again.
    }
    submitted_.Inc();
    if (!unsat) queue_.push_back(std::move(task));
  }
  if (unsat) {
    CompleteUnsatisfiable(task);
  } else {
    queue_not_empty_.notify_one();
  }
  return QueryTicket(std::move(state));
}

void AsyncEngine::CompleteUnsatisfiable(Submission& task) {
  // Oracle-rejected at admission, completed outside the queue lock with the
  // full observability contract: zero-width queue_wait / index_acquire
  // stages, a terminal kUnsatisfiable span, and the oracle_rejected counter
  // flag (TerminalState round-trips it for batch-shaped consumers).
  task.span.Mark(obs::SpanStage::kQueueWait);
  task.span.Mark(obs::SpanStage::kIndexAcquire);
  QueryStats stats;
  stats.counters.oracle_rejected = true;
  Complete(*task.state, stats, "", QueryState::kUnsatisfiable, &task.span);
}

void AsyncEngine::ShedOldestLocked() {
  Submission victim = std::move(queue_.front());
  queue_.pop_front();
  sheds_.Inc();
  QueryStats stats;
  stats.counters.cancelled = true;
  // The victim's whole life was queue wait; its span records that.
  victim.span.Mark(obs::SpanStage::kQueueWait);
  Complete(*victim.state, stats, "", QueryState::kCancelled, &victim.span);
}

double AsyncEngine::RetryAfterLockedMs() const {
  // Backlog clears at roughly (queued + running) / workers times the
  // typical query; before any query completed the hint is a nominal 1ms.
  const double per_query = avg_exec_ms_ > 0.0 ? avg_exec_ms_ : 1.0;
  const double backlog = static_cast<double>(queue_.size() + in_flight_);
  const double est_ms = per_query * (backlog + 1.0) /
                        static_cast<double>(std::max(1u, pool_.num_workers()));
  // Round-trip through an absolute Deadline: the hint the caller receives
  // is exactly what a Deadline armed now for the backlog would report.
  return Deadline::AfterMs(est_ms).RemainingMs();
}

uint64_t AsyncEngine::SubmitUpdate(const GraphDelta& delta) {
  // One epoch at a time: prepare the next snapshot, advance the cache to
  // its version (evicting exactly the affected keys) and only then publish.
  // A query admitted mid-epoch therefore either observes the old snapshot
  // (its cache interactions stay valid for the old version) or the fully
  // invalidated new one — never a snapshot the cache has not caught up to.
  const std::lock_guard<std::mutex> lock(update_mutex_);
  const SnapshotManager::Epoch epoch = snapshots_.Prepare(delta);
  if (cache_ != nullptr) {
    const UpdateImpact& impact = epoch.impact;
    cache_->BeginEpoch(epoch.snapshot->version(),
                       [&impact](VertexId s, VertexId t, uint32_t k) {
                         return impact.AffectsQuery(s, t, k);
                       });
  }
  snapshots_.Publish(epoch);
  return epoch.snapshot->version();
}

Status AsyncEngine::TrySubmitUpdate(const GraphDelta& delta,
                                    uint64_t* new_version) {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (shutdown_) return Status::Unavailable("engine is shut down");
  }
  // Validate against the base vertex space before anything is applied: a
  // malformed wire delta is rejected whole, the snapshot stream unharmed.
  const Status st = CheckDelta(delta, snapshots_.Current()->num_vertices());
  if (!st.ok()) return st;
  const uint64_t v = SubmitUpdate(delta);
  if (new_version != nullptr) *new_version = v;
  return Status::Ok();
}

void AsyncEngine::Drain() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  idle_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

void AsyncEngine::Shutdown(bool cancel_pending) {
  std::deque<Submission> orphans;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    shutdown_ = true;
    // With cancel_pending the queued tickets never run: complete them as
    // kCancelled (outside the lock) so no waiter hangs on a dead queue.
    if (cancel_pending) orphans.swap(queue_);
  }
  for (Submission& task : orphans) {
    QueryStats stats;
    stats.counters.cancelled = true;
    task.span.Mark(obs::SpanStage::kQueueWait);
    Complete(*task.state, stats, "", QueryState::kCancelled, &task.span);
  }
  // Workers drain whatever remains queued (every ticket completes), then
  // exit.
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  idle_.notify_all();
  const std::lock_guard<std::mutex> join_lock(shutdown_mutex_);
  if (runner_.joinable()) runner_.join();
}

void AsyncEngine::WorkerLoop(uint32_t worker) {
  QueryContext& ctx = *contexts_[worker];
  for (;;) {
    Submission task;
    std::shared_ptr<SplitBarrier> help;
    SplitPhase* phase = nullptr;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_not_empty_.wait(lock, [&] {
        return shutdown_ || !queue_.empty() || HasSplitWorkLocked();
      });
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop_front();
        ++in_flight_;
      } else if ((help = ClaimSplitWorkLocked()) != nullptr) {
        // Idle with published split units: help the heavy ticket instead
        // of parking. New submissions take priority again on the next
        // loop. The phase stays published until this helper has left.
        phase = help->phase;
      } else if (shutdown_) {
        break;  // shutdown with a drained queue and no split work
      } else {
        // The split work that woke us evaporated between the predicate and
        // the claim (cursor/stop_claims advance lock-free under the
        // draining participants) — go back to sleep, don't die.
        continue;
      }
    }
    if (help != nullptr) {
      phase->participate(worker, ctx);
      {
        const std::lock_guard<std::mutex> lock(help->mutex);
        --help->active_helpers;
      }
      help->helpers_done.notify_all();
      continue;
    }
    queue_not_full_.notify_one();
    Timer exec_timer;
    Execute(worker, task);
    const double exec_ms = exec_timer.ElapsedMs();
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      --in_flight_;
      executed_.Inc();
      // EWMA of query wall time, feeding the TrySubmit retry-after hint.
      avg_exec_ms_ = avg_exec_ms_ == 0.0 ? exec_ms
                                         : 0.8 * avg_exec_ms_ + 0.2 * exec_ms;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

bool AsyncEngine::HasSplitWorkLocked() const {
  for (const auto& barrier : split_phases_) {
    if (barrier->phase->HasWork()) return true;
  }
  return false;
}

std::shared_ptr<AsyncEngine::SplitBarrier>
AsyncEngine::ClaimSplitWorkLocked() {
  for (const auto& barrier : split_phases_) {
    if (barrier->phase->HasWork()) {
      // Registered under queue_mutex_, so the leader retiring the phase
      // cannot miss this helper: retirement happens under the same lock,
      // and the leader's wait counts active_helpers afterwards.
      const std::lock_guard<std::mutex> lock(barrier->mutex);
      ++barrier->active_helpers;
      return barrier;
    }
  }
  return nullptr;
}

void AsyncEngine::RecruitIdleWorkers(
    const std::shared_ptr<SplitBarrier>& barrier, SplitPhase& phase,
    uint32_t worker) {
  // Publish, then wake parked workers: any worker idle between queue pops
  // joins the phase until its units run dry.
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    barrier->phase = &phase;
    split_phases_.push_back(barrier);
  }
  queue_not_empty_.notify_all();

  // The leader is a participant too.
  phase.participate(worker, *contexts_[worker]);

  // Retire the phase so no further helper registers, then wait out the
  // ones already inside — the phase's barrier.
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    std::erase(split_phases_, barrier);
  }
  std::unique_lock<std::mutex> lock(barrier->mutex);
  barrier->helpers_done.wait(lock,
                             [&] { return barrier->active_helpers == 0; });
}

void AsyncEngine::Execute(uint32_t worker, Submission& task) {
  fault::Hit(fault::Site::kAsyncClaim);
  // The worker's claim ends the queue-wait stage on every path below.
  task.span.Mark(obs::SpanStage::kQueueWait);
  if (task.state->cancel.cancelled()) {
    // Cancelled while queued: complete without touching the sink at all.
    QueryStats stats;
    stats.counters.cancelled = true;
    // Count before Complete: a waiter woken by the completion must already
    // see this shed in stats().
    cancelled_before_run_.Inc();
    Complete(*task.state, stats, "", QueryState::kCancelled, &task.span);
    return;
  }
  if (task.split) task.span.SetSplit();
  QueryContext& ctx = *contexts_[worker];
  try {
    // The context runs on exactly the submission's snapshot; the rebind is
    // a view copy (scratch survives), free when the snapshot is unchanged.
    ctx.Rebind(*task.snapshot);
    QueryStats stats;
    if (task.split) {
      // The index is acquired once on the submission's snapshot and is
      // immutable from here on — every unit, whichever worker runs it and
      // however many updates publish meanwhile, observes exactly this
      // snapshot.
      ValidateQuery(*task.snapshot, task.query);
      const auto barrier = std::make_shared<SplitBarrier>();
      stats = RunSplitQuery(
          ctx, task.query, *task.sink, task.opts, cache_.get(),
          pool_.num_workers(),
          [&](SplitPhase& phase) {
            RecruitIdleWorkers(barrier, phase, worker);
          },
          task.span);
    } else {
      stats = ctx.RunCached(task.query, *task.sink, task.opts, cache_.get(),
                            &task.span);
    }
    Complete(*task.state, stats, "", stats.counters.TerminalState(),
             &task.span);
  } catch (const std::logic_error& e) {
    Complete(*task.state, QueryStats{}, e.what(), QueryState::kRejected,
             &task.span);
  } catch (const std::exception& e) {
    // A split participant's failure arrives here as std::runtime_error,
    // after every helper has left the phase: the caller's sink is safe to
    // abandon.
    Complete(*task.state, QueryStats{}, e.what(), QueryState::kError,
             &task.span);
  }
}

void AsyncEngine::Complete(QueryTicket::State& state, const QueryStats& stats,
                           std::string error, QueryState query_state,
                           obs::QuerySpan* span) {
  if (span != nullptr) span->Finish(query_state);
  {
    const std::lock_guard<std::mutex> lock(state.mutex);
    state.stats = stats;
    state.error = std::move(error);
    state.query_state = query_state;
    if (span != nullptr) state.span_data = span->data();
    state.done = true;
  }
  state.cv.notify_all();
}

AsyncEngine::Stats AsyncEngine::stats() const {
  Stats s;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    s.submitted = submitted_.Value();
    s.executed = executed_.Value();
    s.queue_rejects = queue_rejects_.Value();
    s.sheds = sheds_.Value();
    s.oracle_rejects = oracle_rejects_.Value();
    s.queue_depth = queue_.size();
  }
  s.cancelled_before_run = cancelled_before_run_.Value();
  const SnapshotManager::Stats snap = snapshots_.stats();
  s.updates = snap.updates;
  s.compactions = snap.compactions;
  s.version = snapshots_.version();
  if (cache_ != nullptr) s.cache = cache_->Stats();
  return s;
}

}  // namespace pathenum
