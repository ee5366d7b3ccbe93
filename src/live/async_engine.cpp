#include "live/async_engine.h"

#include <utility>

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

void QueryTicket::State::Finish(Task& task, const QueryStats& run_stats,
                               std::string run_error, QueryState run_state) {
  task.span.Finish(run_state);
  {
    const std::lock_guard<std::mutex> lock(mutex);
    stats = run_stats;
    error = std::move(run_error);
    query_state = run_state;
    span_data = task.span.data();
    done = true;
  }
  cv.notify_all();
}

// ---------------------------------------------------------------------------
// AsyncEngine
// ---------------------------------------------------------------------------

AsyncEngine::AsyncEngine(Graph base, const AsyncEngineOptions& opts)
    : opts_(opts),
      snapshots_(std::move(base), opts.snapshot),
      cache_(opts.enable_cache ? std::make_unique<IndexCache>(opts.cache)
                               : nullptr),
      scheduler_(*snapshots_.Current(), opts.num_workers) {
  if (opts_.max_queue == 0) opts_.max_queue = 1;
  if (opts_.enable_oracle) {
    // The oracle labels the version-0 base and then rides every update
    // epoch inside SnapshotManager::Prepare/Publish, so its claims stay in
    // lockstep with whatever snapshot a submission captures.
    oracle_ = std::make_unique<LiveDistanceOracle>(
        snapshots_.Current()->base(), opts_.oracle);
    snapshots_.AttachOracle(oracle_.get());
  }

#if PATHENUM_OBS
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  const std::string label =
      "engine=\"" + std::to_string(reg.NextInstanceId()) + "\"";
  const auto counter = [&](const char* name, const obs::ShardedCounter* c) {
    reg.RegisterCounter(this, name, label, c);
  };
  counter("pathenum_async_submitted_total", &submitted_);
  counter("pathenum_async_executed_total", &scheduler_.executed());
  counter("pathenum_async_queue_rejects_total", &queue_rejects_);
  counter("pathenum_async_sheds_total", &sheds_);
  counter("pathenum_async_cancelled_before_run_total",
          &scheduler_.cancelled_before_run());
  counter("pathenum_async_oracle_rejects_total", &oracle_rejects_);
  reg.RegisterGauge(this, "pathenum_async_queue_depth", label, [this] {
    return static_cast<uint64_t>(scheduler_.queued());
  });
  reg.RegisterGauge(this, "pathenum_async_snapshot_version", label,
                    [this] { return snapshots_.version(); });
  reg.RegisterGauge(this, "pathenum_async_workers", label, [this] {
    return static_cast<uint64_t>(scheduler_.num_workers());
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
  Task task;
  task.query = q;
  task.sink = &sink;
  task.opts = opts.query;
  task.split = opts.split_branches;
  task.cache = cache_.get();
  task.done = state;
  WireCancel(state->cancel, task.opts);
  task.span.Begin(q.source, q.target, q.hops);
  Scheduler::LockedQueue queue = scheduler_.Lock();
  for (;;) {
    if (queue.shut_down()) {
      if (!block_when_full) {
        queue_rejects_.Inc();
        return QueryTicket();
      }
      queue.FinishUnrun(std::move(task), QueryState::kRejected,
                        "engine is shut down");
      return QueryTicket(std::move(state));
    }
    // The snapshot (and its oracle epoch) is captured while holding the
    // queue lock so ticket version order is consistent with admission
    // order; SubmitUpdate publishes outside this lock, so a submission
    // observes either the old or the new snapshot — never a half-published
    // one, and never an oracle epoch from a different version.
    const SnapshotManager::Published pub = snapshots_.CurrentPublished();
    task.snapshot = pub.snapshot;
    state->snapshot_version = task.snapshot->version();
    // The scheduler's gate, ahead of the full-queue policy: an invalid or
    // certified-unsatisfiable submission never occupies a queue slot, so
    // it can neither shed useful queued work nor wait for room. The ticket
    // completes once the queue hold is released, before this returns.
    const QueryState verdict = queue.Gate(task, pub.oracle);
    if (verdict != QueryState::kOk) {
      submitted_.Inc();
      if (verdict == QueryState::kUnsatisfiable) oracle_rejects_.Inc();
      return QueryTicket(std::move(state));
    }
    if (queue.queued() < opts_.max_queue) break;
    if (opts_.shed_policy == AsyncEngineOptions::ShedPolicy::kCancelOldest) {
      // Oldest loses: its whole life was queue wait. This submission is
      // admitted into the room.
      queue.FinishUnrun(queue.PopOldest(), QueryState::kCancelled);
      sheds_.Inc();
      break;
    }
    if (!block_when_full) {
      queue_rejects_.Inc();
      if (retry_after_ms != nullptr) *retry_after_ms = RetryAfterMs(queue);
      return QueryTicket();
    }
    queue.WaitForRoom(opts_.max_queue);
    // Room may come with a newer snapshot: capture it and gate again.
  }
  submitted_.Inc();
  queue.Push(std::move(task));
  return QueryTicket(std::move(state));
}

double AsyncEngine::RetryAfterMs(const Scheduler::LockedQueue& queue) const {
  // Backlog clears at roughly (queued + running) / workers times the
  // typical query; before any query completed the hint is a nominal 1ms.
  const double per_query =
      queue.avg_task_ms() > 0.0 ? queue.avg_task_ms() : 1.0;
  const double backlog =
      static_cast<double>(queue.queued() + queue.in_flight());
  const double est_ms = per_query * (backlog + 1.0) /
                        static_cast<double>(scheduler_.num_workers());
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
  if (scheduler_.Lock().shut_down()) {
    return Status::Unavailable("engine is shut down");
  }
  // Validate against the base vertex space before anything is applied: a
  // malformed wire delta is rejected whole, the snapshot stream unharmed.
  const Status st = CheckDelta(delta, snapshots_.Current()->num_vertices());
  if (!st.ok()) return st;
  const uint64_t v = SubmitUpdate(delta);
  if (new_version != nullptr) *new_version = v;
  return Status::Ok();
}

void AsyncEngine::Shutdown(bool cancel_pending) {
  {
    Scheduler::LockedQueue queue = scheduler_.Lock();
    queue.Close();
    // With cancel_pending the queued tickets never run: they complete as
    // kCancelled once the hold is released, so no waiter hangs on a dead
    // queue.
    while (cancel_pending && queue.queued() > 0) {
      queue.FinishUnrun(queue.PopOldest(), QueryState::kCancelled);
    }
  }
  // Workers run whatever remains queued (every ticket completes), then
  // exit.
  scheduler_.Shutdown();
}

AsyncEngine::Stats AsyncEngine::stats() const {
  Stats s;
  s.submitted = submitted_.Value();
  s.executed = scheduler_.executed().Value();
  s.queue_rejects = queue_rejects_.Value();
  s.sheds = sheds_.Value();
  s.oracle_rejects = oracle_rejects_.Value();
  s.queue_depth = scheduler_.queued();
  s.cancelled_before_run = scheduler_.cancelled_before_run().Value();
  const SnapshotManager::Stats snap = snapshots_.stats();
  s.updates = snap.updates;
  s.compactions = snap.compactions;
  s.version = snapshots_.version();
  if (cache_ != nullptr) s.cache = cache_->Stats();
  return s;
}

}  // namespace pathenum
