#include "engine/scheduler.h"

#include <algorithm>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "engine/split_query.h"
#include "util/common.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace pathenum {

uint32_t Scheduler::WorkersFor(uint32_t requested) {
  PATHENUM_CHECK_MSG(requested <= kMaxWorkers, "implausible worker count");
  const uint32_t hw = std::thread::hardware_concurrency();
  if (requested == 0) return std::max(1u, hw);
  return hw == 0 ? requested : std::min(requested, hw);
}

Scheduler::Scheduler(const GraphView& view, uint32_t num_workers) {
  const uint32_t n = WorkersFor(num_workers);
  contexts_.reserve(n);
  for (uint32_t w = 0; w < n; ++w) {
    contexts_.push_back(std::make_unique<PathEnumerator>(view));
    idle_contexts_.push_back(contexts_.back().get());
  }
  threads_.reserve(n);
  try {
    for (uint32_t w = 0; w < n; ++w) {
      threads_.emplace_back([this, w] { WorkerLoop(w); });
    }
  } catch (...) {
    // Spawn failed partway (resource exhaustion): join what started, or
    // their joinable destructors would terminate the process.
    Shutdown();
    throw;
  }
}

Scheduler::~Scheduler() { Shutdown(); }

size_t Scheduler::ScratchBytes() const {
  size_t bytes = 0;
  for (const auto& ctx : contexts_) bytes += ctx->ScratchBytes();
  return bytes;
}

size_t Scheduler::queued() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

Scheduler::LockedQueue::~LockedQueue() {
  lock_.unlock();
  if (pushed_ == 1) {
    s_.work_.notify_one();
  } else if (pushed_ > 1) {
    s_.work_.notify_all();
  }
  for (Unrun& u : unrun_) u.task.FinishUnrun(u.state, std::move(u.error));
}

QueryState Scheduler::LockedQueue::Gate(
    Task& task, const LiveDistanceOracle::EpochRef& epoch) {
  // Queries are untrusted input: an invalid one never takes a queue slot.
  // A valid one the epoch certifies as dist(s,t) > k has the complete,
  // empty result without an index build or a sink call.
  const Query& q = task.query;
  const Status st = CheckQuery(*task.snapshot, q);
  if (!st.ok()) {
    FinishUnrun(std::move(task), QueryState::kRejected,
                std::string(st.message()));
    return QueryState::kRejected;
  }
  if (epoch.Rejects(q.source, q.target, q.hops)) {
    FinishUnrun(std::move(task), QueryState::kUnsatisfiable);
    return QueryState::kUnsatisfiable;
  }
  return QueryState::kOk;
}

void Scheduler::LockedQueue::Push(Task&& task) {
  s_.queue_.push_back(std::move(task));
  ++pushed_;
}

void Scheduler::LockedQueue::FinishUnrun(Task&& task, QueryState state,
                                         std::string error) {
  unrun_.push_back({std::move(task), state, std::move(error)});
}

Task Scheduler::LockedQueue::PopOldest() {
  Task task = std::move(s_.queue_.front());
  s_.queue_.pop_front();
  return task;
}

void Scheduler::LockedQueue::WaitForRoom(size_t capacity) {
  s_.room_.wait(lock_, [&] {
    return s_.shutdown_ || s_.queue_.size() < capacity;
  });
}

void Scheduler::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

void Scheduler::Shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_.notify_all();
  room_.notify_all();
  idle_.notify_all();
  const std::lock_guard<std::mutex> join_lock(join_mutex_);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void Scheduler::WorkerLoop(uint32_t worker) {
  for (;;) {
    Task task;
    std::shared_ptr<SplitBarrier> help;
    PathEnumerator* ctx = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_.wait(lock, [&] {
        return shutdown_ || !queue_.empty() || HasSplitWorkLocked();
      });
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop_front();
        ++in_flight_;
      } else if ((help = ClaimSplitWorkLocked()) == nullptr) {
        // Shutdown with a drained queue and no split work: exit. Otherwise
        // the split work that woke us evaporated between the predicate and
        // the claim (cursors advance lock-free under the participants):
        // sleep again.
        if (shutdown_) return;
        continue;
      }
      ctx = TakeContextLocked(task.split ? nullptr : contexts_[worker].get());
    }
    if (help != nullptr) {
      // Idle with published split units: help the split query instead of
      // parking. Queued tasks take priority again on the next loop; the
      // phase stays published until this helper has left.
      help->phase->participate(worker, *ctx);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        idle_contexts_.push_back(ctx);
      }
      {
        const std::lock_guard<std::mutex> lock(help->mutex);
        --help->active_helpers;
      }
      help->helpers_done.notify_all();
      continue;
    }
    room_.notify_one();
    Timer timer;
    Execute(worker, *ctx, task);
    const double ms = timer.ElapsedMs();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      idle_contexts_.push_back(ctx);
      --in_flight_;
      executed_.Inc();
      avg_task_ms_ = avg_task_ms_ == 0.0 ? ms : 0.8 * avg_task_ms_ + 0.2 * ms;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

void Scheduler::Execute(uint32_t worker, PathEnumerator& ctx, Task& task) {
  if (task.opts.cancel.cancelled()) {
    // Cancelled while queued: complete without touching the sink. Count
    // before the finish: a waiter woken by it must already see this.
    cancelled_before_run_.Inc();
    task.FinishUnrun(QueryState::kCancelled);
    return;
  }
  // The worker's claim ends the queue-wait stage on every path below.
  task.span.Mark(obs::SpanStage::kQueueWait);
  if (task.split) task.span.SetSplit();
  QueryStats stats;  // assigned only by a run that returned
  std::string error;
  QueryState state = QueryState::kOk;
  try {
    fault::Hit(fault::Site::kTaskClaim);
    // The enumerator runs on exactly the task's snapshot; the rebind is a
    // view copy, free of scratch churn.
    ctx.Rebind(*task.snapshot);
    if (task.split) {
      // The index is acquired once on the task's snapshot and is
      // immutable from here on: every unit, whichever worker runs it,
      // observes exactly this snapshot.
      stats = RunSplitQuery(*this, worker, ctx, task.query, *task.sink,
                            task.opts, task.cache, task.span);
    } else {
      stats = ctx.Run(task.query, *task.sink, task.opts, task.cache,
                      &task.span);
    }
    state = stats.counters.TerminalState();
  } catch (const std::logic_error& e) {
    error = e.what();
    state = QueryState::kRejected;
  } catch (const std::exception& e) {
    // A split participant's failure arrives here as std::runtime_error,
    // after every helper has left the phase.
    error = e.what();
    state = QueryState::kError;
  } catch (...) {
    error = "query task failed";
    state = QueryState::kError;
  }
  task.Finish(stats, std::move(error), state);
}

bool Scheduler::HasSplitWorkLocked() const {
  for (const auto& barrier : split_phases_) {
    if (barrier->phase->HasWork()) return true;
  }
  return false;
}

std::shared_ptr<Scheduler::SplitBarrier> Scheduler::ClaimSplitWorkLocked() {
  for (const auto& barrier : split_phases_) {
    if (barrier->phase->HasWork()) {
      const std::lock_guard<std::mutex> lock(barrier->mutex);
      ++barrier->active_helpers;
      return barrier;
    }
  }
  return nullptr;
}

PathEnumerator* Scheduler::TakeContextLocked(PathEnumerator* preferred) {
  // Never empty: each worker holds at most one context.
  auto it = std::find(idle_contexts_.begin(), idle_contexts_.end(), preferred);
  if (it == idle_contexts_.end()) it = std::prev(idle_contexts_.end());
  PathEnumerator* ctx = *it;
  idle_contexts_.erase(it);
  return ctx;
}

void Scheduler::RunPhase(uint32_t leader, PathEnumerator& ctx,
                         SplitPhase& phase) {
  // Helpers hold the barrier past their last touch of the leader's stack.
  const auto barrier = std::make_shared<SplitBarrier>();
  barrier->phase = &phase;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    split_phases_.push_back(barrier);
  }
  work_.notify_all();

  phase.participate(leader, ctx);

  // Retire the phase so no further helper registers, then wait out the
  // ones already inside — the phase's barrier.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::erase(split_phases_, barrier);
  }
  std::unique_lock<std::mutex> lock(barrier->mutex);
  barrier->helpers_done.wait(lock,
                             [&] { return barrier->active_helpers == 0; });
}

}  // namespace pathenum
