// Tests for the one worker scheduler both engines run on (DESIGN.md §5):
// every worker serves the shared queue, the worker-count rule and its cap,
// failure isolation of a throwing task, and teardown — Shutdown is
// idempotent and runs every queued task to completion.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "engine/scheduler.h"
#include "graph/generators.h"
#include "test_util.h"

namespace pathenum {
namespace {

using testing::PaperExampleGraph;
using testing::PaperExampleQuery;

/// Records each task's terminal state and error by slot.
class RecordingDone final : public TaskDone {
 public:
  explicit RecordingDone(size_t tasks) : states_(tasks), errors_(tasks) {}

  void Finish(Task& task, const QueryStats&, std::string error,
              QueryState state) override {
    task.span.Finish(state);
    const std::lock_guard<std::mutex> lock(mutex_);
    states_[task.slot] = state;
    errors_[task.slot] = std::move(error);
    ++finished_;
  }

  size_t finished() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return finished_;
  }
  QueryState state(size_t slot) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return states_[slot];
  }
  std::string error(size_t slot) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return errors_[slot];
  }

 private:
  mutable std::mutex mutex_;
  std::vector<QueryState> states_;
  std::vector<std::string> errors_;
  size_t finished_ = 0;
};

/// Pushes `sinks.size()` copies of the paper's example query, task i into
/// sinks[i], all reporting to `done`.
void PushExampleTasks(Scheduler& scheduler, const GraphView& view,
                      std::span<PathSink* const> sinks,
                      const std::shared_ptr<RecordingDone>& done) {
  const auto snapshot = std::make_shared<const GraphView>(view);
  Scheduler::LockedQueue queue = scheduler.Lock();
  for (size_t i = 0; i < sinks.size(); ++i) {
    Task task;
    task.query = PaperExampleQuery();
    task.sink = sinks[i];
    task.snapshot = snapshot;
    task.done = done;
    task.slot = i;
    queue.Push(std::move(task));
  }
}

/// Holds every caller inside OnPath until `parties` callers are inside at
/// once (or a timeout passes), recording which threads came.
class RendezvousSink : public PathSink {
 public:
  struct Shared {
    std::mutex mutex;
    std::condition_variable cv;
    size_t arrived = 0;
    std::set<std::thread::id> threads;
  };

  RendezvousSink(Shared& shared, size_t parties)
      : shared_(shared), parties_(parties) {}

  bool OnPath(std::span<const VertexId>) override {
    std::unique_lock<std::mutex> lock(shared_.mutex);
    ++shared_.arrived;
    shared_.threads.insert(std::this_thread::get_id());
    shared_.cv.notify_all();
    met_ = shared_.cv.wait_for(lock, std::chrono::seconds(10), [&] {
      return shared_.arrived >= parties_;
    });
    return false;  // one path is enough
  }

  bool met() const { return met_; }

 private:
  Shared& shared_;
  size_t parties_;
  bool met_ = false;
};

TEST(SchedulerTest, RunsTaskOnEveryWorker) {
  const Graph g = PaperExampleGraph();
  Scheduler scheduler(g, 4);
  const size_t n = scheduler.num_workers();
  ASSERT_EQ(n, Scheduler::WorkersFor(4));
  // Two rounds: workers park between them and wake for the second.
  for (int round = 0; round < 2; ++round) {
    RendezvousSink::Shared shared;
    std::vector<std::unique_ptr<RendezvousSink>> sinks;
    std::vector<PathSink*> sink_ptrs;
    for (size_t i = 0; i < n; ++i) {
      sinks.push_back(std::make_unique<RendezvousSink>(shared, n));
      sink_ptrs.push_back(sinks.back().get());
    }
    const auto done = std::make_shared<RecordingDone>(n);
    PushExampleTasks(scheduler, g, sink_ptrs, done);
    scheduler.Drain();
    ASSERT_EQ(done->finished(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(sinks[i]->met()) << "task " << i << " ran alone";
      EXPECT_EQ(done->state(i), QueryState::kTruncated);  // sink stop
    }
    // n tasks, each held until all n were inside at once: every worker
    // claimed exactly one.
    EXPECT_EQ(shared.threads.size(), n);
  }
}

TEST(SchedulerTest, DefaultsToAtLeastOneWorker) {
  const Graph g = PaperExampleGraph();
  Scheduler scheduler(g, 0);
  EXPECT_GE(scheduler.num_workers(), 1u);
  EXPECT_EQ(scheduler.num_workers(), Scheduler::WorkersFor(0));
  EXPECT_EQ(Scheduler::WorkersFor(1), 1u);
  // The hardware clamp: never more workers than hardware threads.
  const uint32_t hw = std::thread::hardware_concurrency();
  if (hw != 0) {
    EXPECT_LE(Scheduler::WorkersFor(Scheduler::kMaxWorkers), hw);
  }
}

/// Threads of this process, or 0 where /proc is unavailable.
size_t ProcessThreads() {
  const std::filesystem::path tasks("/proc/self/task");
  std::error_code ec;
  if (!std::filesystem::exists(tasks, ec)) return 0;
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(tasks, ec)) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(SchedulerTest, RejectsWorkerCountAboveCapBeforeStartingThreads) {
  const Graph g = PaperExampleGraph();
  const size_t threads_before = ProcessThreads();
  EXPECT_THROW(Scheduler(g, Scheduler::kMaxWorkers + 1), std::logic_error);
  EXPECT_EQ(ProcessThreads(), threads_before);
}

/// Throws from the first path it is offered.
class ThrowingSink : public PathSink {
 public:
  bool OnPath(std::span<const VertexId>) override {
    throw std::runtime_error("sink exploded");
  }
};

TEST(SchedulerTest, ThrowingTaskIsIsolated) {
  const Graph g = ErdosRenyi(30, 200, 3);
  QueryEngine engine(g, {.num_workers = 3});
  const std::vector<Query> queries = {{0, 10, 4}, {1, 12, 4}, {2, 14, 4}};
  std::vector<CountingSink> counting(queries.size());
  ThrowingSink thrower;
  std::vector<PathSink*> sinks = {&counting[0], &thrower, &counting[2]};
  const BatchResult r = engine.RunBatch(queries, sinks);
  EXPECT_EQ(r.states[1], QueryState::kError);
  EXPECT_EQ(r.errors[1], "sink exploded");
  for (const size_t i : {0u, 2u}) {
    CountingSink ref;
    PathEnumerator(g).Run(queries[i], ref);
    EXPECT_TRUE(r.errors[i].empty()) << r.errors[i];
    EXPECT_EQ(r.states[i], QueryState::kOk);
    EXPECT_EQ(r.stats[i].counters.num_results, ref.count());
  }
  // The workers survive the throwing task.
  const BatchResult again = engine.CountBatch(queries);
  EXPECT_TRUE(again.ok());
}

TEST(SchedulerTest, ShutdownIsIdempotent) {
  const Graph g = PaperExampleGraph();
  Scheduler scheduler(g, 2);
  scheduler.Shutdown();
  scheduler.Shutdown();  // second call is a no-op, destructor another
  EXPECT_TRUE(scheduler.Lock().shut_down());
}

/// Slows its task down so the queue is still full when Shutdown lands.
class SlowSink : public PathSink {
 public:
  bool OnPath(std::span<const VertexId>) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return true;
  }
};

TEST(SchedulerTest, ShutdownUnderLoadRunsQueuedTasks) {
  const Graph g = PaperExampleGraph();
  Scheduler scheduler(g, 4);
  constexpr size_t kTasks = 16;
  std::vector<SlowSink> slow(kTasks);
  std::vector<PathSink*> sinks;
  for (SlowSink& s : slow) sinks.push_back(&s);
  const auto done = std::make_shared<RecordingDone>(kTasks);
  PushExampleTasks(scheduler, g, sinks, done);
  scheduler.Shutdown();  // races the queued tasks
  ASSERT_EQ(done->finished(), kTasks);
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(done->state(i), QueryState::kOk) << done->error(i);
  }
}

}  // namespace
}  // namespace pathenum
