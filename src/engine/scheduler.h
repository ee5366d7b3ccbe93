// The one worker scheduler both engines run on (DESIGN.md §5, §8): N
// persistent worker threads serve one FIFO queue of query tasks, drawing on
// N reusable PathEnumerators. A task carries its query, sink, options and
// the snapshot it observes; the claiming worker takes an enumerator, rebinds
// it to that snapshot (cheap: scratch survives), runs the query — plain
// through PathEnumerator::Run, split through RunSplitQuery — and hands the
// outcome to the task's TaskDone. A split query is led by the worker that
// claimed it: each fan-out phase is published here, and idle workers help
// drain its units between queue pops.
//
// Both engines admit through the one gate, LockedQueue::Gate, under the
// queue lock just before they decide whether to push: an invalid query
// completes as kRejected and an oracle-certified unsatisfiable one as
// kUnsatisfiable, neither taking a queue slot. QueryEngine pushes a batch's
// query groups and waits for the queue to drain; AsyncEngine keeps the shed
// policies, tickets, snapshots and updates and pushes each admitted ticket.
#ifndef PATHENUM_ENGINE_SCHEDULER_H_
#define PATHENUM_ENGINE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/options.h"
#include "core/path_enum.h"
#include "core/query.h"
#include "core/sink.h"
#include "engine/index_cache.h"
#include "graph/view.h"
#include "live/live_oracle.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace pathenum {

struct SplitPhase;
struct Task;

/// Where a task's outcome goes. Finish is called exactly once per task —
/// by the worker that ran it, or through Task::FinishUnrun — and finishes
/// `task.span`.
class TaskDone {
 public:
  virtual ~TaskDone() = default;
  virtual void Finish(Task& task, const QueryStats& stats, std::string error,
                      QueryState state) = 0;
};

/// One query on the scheduler's queue.
struct Task {
  Query query;
  PathSink* sink = nullptr;
  EnumOptions opts;
  /// Run as a split query: the claiming worker leads, idle workers help.
  bool split = false;
  IndexCache* cache = nullptr;  // null: uncached run
  /// The snapshot the query observes end to end.
  std::shared_ptr<const GraphView> snapshot;
  std::shared_ptr<TaskDone> done;
  /// The TaskDone's own index for this task; opaque to the scheduler.
  size_t slot = 0;
  /// Begun by the enqueuer; queue_wait ends at the worker's claim.
  obs::QuerySpan span;

  void Finish(const QueryStats& stats, std::string error, QueryState state) {
    done->Finish(*this, stats, std::move(error), state);
  }

  /// Completes the task without running it: refused at the gate, shed,
  /// orphaned by a cancelling shutdown, cancelled before its claim, or
  /// submitted after shutdown. One span shape for all of them: the task's
  /// whole life was queue wait. kCancelled and kUnsatisfiable set their
  /// counter flag (TerminalState round-trips it); `error` is the kRejected
  /// message.
  void FinishUnrun(QueryState state, std::string error = {}) {
    span.Mark(obs::SpanStage::kQueueWait);
    if (split) span.SetSplit();
    QueryStats stats;
    stats.counters.cancelled = state == QueryState::kCancelled;
    stats.counters.oracle_rejected = state == QueryState::kUnsatisfiable;
    Finish(stats, std::move(error), state);
  }
};

class Scheduler {
 public:
  /// Upper bound on a requested worker count; beyond it is a
  /// configuration error (e.g. a negative count pushed through a uint32
  /// cast), not capacity planning.
  static constexpr uint32_t kMaxWorkers = 4096;

  /// The one worker-count rule of both engines: 0 picks one worker per
  /// hardware thread, and any request is clamped to the hardware threads
  /// (when the host reports them), so an engine sized for a big machine
  /// never oversubscribes a small one. Throws std::logic_error above
  /// kMaxWorkers.
  static uint32_t WorkersFor(uint32_t requested);

  /// Starts WorkersFor(num_workers) workers and as many enumerators bound
  /// to `view`. The worker-count check fires before any thread starts.
  Scheduler(const GraphView& view, uint32_t num_workers);

  /// Shuts down: queued tasks still run.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  uint32_t num_workers() const {
    return static_cast<uint32_t>(threads_.size());
  }

  /// Reusable scratch over all enumerators; read while the workers are
  /// idle.
  size_t ScratchBytes() const;

  /// Tasks queued, not yet claimed.
  size_t queued() const;

  /// The queue held under its lock: admission decisions (the gate,
  /// capacity, shedding, snapshot capture) are atomic with the push.
  /// Workers are woken for the pushed tasks, and the tasks finished
  /// without running complete, once the hold is released.
  class LockedQueue {
   public:
    explicit LockedQueue(Scheduler& s) : s_(s), lock_(s.mutex_) {}
    ~LockedQueue();
    LockedQueue(const LockedQueue&) = delete;
    LockedQueue& operator=(const LockedQueue&) = delete;

    bool shut_down() const { return s_.shutdown_; }
    size_t queued() const { return s_.queue_.size(); }
    size_t in_flight() const { return s_.in_flight_; }
    /// EWMA of task wall time (0 before the first task finished).
    double avg_task_ms() const { return s_.avg_task_ms_; }

    /// The one admission gate of both engines, called just before the
    /// push decision: CheckQuery against the task's snapshot, then
    /// `epoch`'s unsatisfiability claim. Returns kOk when the task may be
    /// pushed. Otherwise the task is taken over and finished without
    /// running once the hold is released — kRejected with CheckQuery's
    /// message, or kUnsatisfiable — and the refusal's state is returned.
    QueryState Gate(Task& task, const LiveDistanceOracle::EpochRef& epoch);
    void Push(Task&& task);
    /// Takes `task` over and completes it through Task::FinishUnrun once
    /// the hold is released, outside the queue lock.
    void FinishUnrun(Task&& task, QueryState state, std::string error = {});
    /// Removes and returns the oldest queued task; the queue must not be
    /// empty.
    Task PopOldest();
    /// Refuses further pushes: shut_down() reads true from here on.
    void Close() { s_.shutdown_ = true; }
    /// Blocks until fewer than `capacity` tasks are queued or the
    /// scheduler shuts down.
    void WaitForRoom(size_t capacity);

   private:
    struct Unrun {
      Task task;
      QueryState state;
      std::string error;
    };

    Scheduler& s_;
    std::unique_lock<std::mutex> lock_;
    uint32_t pushed_ = 0;
    std::vector<Unrun> unrun_;  // finished once the hold is released
  };
  LockedQueue Lock() { return LockedQueue(*this); }

  /// Blocks until the queue is empty and no task is running: every task
  /// pushed before the call has finished.
  void Drain();

  /// Closes the queue, lets the workers run what is still queued, and
  /// joins them. Idempotent; safe against concurrent callers.
  void Shutdown();

  /// Runs one phase of a split query led by `leader` — the worker running
  /// that query's task on enumerator `ctx`: publishes the phase so idle
  /// workers help between queue pops, participates as the leader, retires
  /// the phase and waits out the helpers that joined. Participant ids are
  /// worker ids.
  void RunPhase(uint32_t leader, PathEnumerator& ctx, SplitPhase& phase);

  /// Tasks run by a worker since construction.
  const obs::ShardedCounter& executed() const { return executed_; }
  /// Tasks whose cancel token had fired by the time a worker claimed them:
  /// completed as kCancelled without running.
  const obs::ShardedCounter& cancelled_before_run() const {
    return cancelled_before_run_;
  }

 private:
  /// A published split phase and the helpers inside it. Helpers register
  /// under mutex_ (the scheduler's), so the leader retiring the phase
  /// under that lock cannot miss one.
  struct SplitBarrier {
    SplitPhase* phase = nullptr;
    std::mutex mutex;  // guards active_helpers
    std::condition_variable helpers_done;
    uint32_t active_helpers = 0;
  };

  void WorkerLoop(uint32_t worker);
  /// Claim-to-Finish of one task on `worker` and `ctx`: the shared rebind,
  /// run and failure-isolation rule of both engines.
  void Execute(uint32_t worker, PathEnumerator& ctx, Task& task);

  /// True when some published phase still has unclaimed units; mutex_
  /// must be held.
  bool HasSplitWorkLocked() const;
  /// Registers the caller as a helper on a published phase with unclaimed
  /// units, or returns null; mutex_ must be held.
  std::shared_ptr<SplitBarrier> ClaimSplitWorkLocked();
  /// Removes `preferred` from the idle enumerators when it is there, else
  /// the most recently returned one, and returns it; mutex_ must be held.
  PathEnumerator* TakeContextLocked(PathEnumerator* preferred);

  /// One enumerator per worker: each carries a worker's reusable scratch.
  std::vector<std::unique_ptr<PathEnumerator>> contexts_;

  mutable std::mutex mutex_;
  /// Enumerators no worker holds. A worker runs a plain task or a split
  /// phase on its own one (contexts_[worker]) when that is idle, so its
  /// scratch stays warm on its core. A split query's leader takes the most
  /// recently returned enumerator instead, and returns it after its helpers
  /// returned theirs: split queries run one at a time keep being led on
  /// one enumerator, so the leader-only index build and split scratch are
  /// not replicated into every one.
  std::vector<PathEnumerator*> idle_contexts_;
  std::condition_variable work_;   // queue or split work, or shutdown
  std::condition_variable room_;   // a task left the queue
  std::condition_variable idle_;   // queue empty and nothing in flight
  std::deque<Task> queue_;
  std::deque<std::shared_ptr<SplitBarrier>> split_phases_;
  size_t in_flight_ = 0;
  double avg_task_ms_ = 0.0;
  bool shutdown_ = false;
  obs::ShardedCounter executed_;
  obs::ShardedCounter cancelled_before_run_;

  std::mutex join_mutex_;  // serializes the joins of concurrent Shutdowns
  /// Declared last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace pathenum

#endif  // PATHENUM_ENGINE_SCHEDULER_H_
