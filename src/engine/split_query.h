// Intra-query splitting (DESIGN.md §8): the one driver that fans a single
// query's work out across an engine's workers. A first-level IDX-DFS branch
// and a split IDX-JOIN materialization or probe unit are all
// dependence-disjoint units (PAPERS.md: Zhou, Heath & Harris): any
// participant may claim any unit of a phase, in any order, off a shared
// cursor. Both engines' split queries run here, on the one scheduler
// (engine/scheduler.h): the worker that claimed the query leads it, and
// idle workers help drain each phase between queue pops.
#ifndef PATHENUM_ENGINE_SPLIT_QUERY_H_
#define PATHENUM_ENGINE_SPLIT_QUERY_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "core/options.h"
#include "core/path_enum.h"
#include "core/query.h"
#include "core/sink.h"
#include "engine/index_cache.h"
#include "obs/span.h"

namespace pathenum {

class Scheduler;

/// One fan-out phase of a split query: `units` units claimed off `cursor`
/// until it runs past them or `stop_claims` trips.
struct SplitPhase {
  /// One participant's share of the phase: `worker` is its scheduler
  /// worker id — distinct among concurrent participants — and `ctx` that
  /// worker's context. Never throws: the driver records a failure,
  /// stops the phase, and rethrows it on the leader after the barrier.
  std::function<void(uint32_t worker, PathEnumerator& ctx)> participate;
  std::atomic<uint32_t> cursor{0};
  uint32_t units = 0;
  const std::atomic<bool>* stop_claims = nullptr;

  /// True while unclaimed units remain: whether recruiting one more helper
  /// is still worth it.
  bool HasWork() const {
    return !stop_claims->load(std::memory_order_relaxed) &&
           cursor.load(std::memory_order_relaxed) < units;
  }
};

/// Runs one gated (hence valid) query with its work split across
/// `scheduler`'s workers, led by worker `leader` (the caller) on `lead_ctx`:
/// acquires the index through PathEnumerator::AcquireIndex (and `cache`, when
/// given — the index cache only, since
/// a split run's sink interleaving is nondeterministic and so never recorded
/// for replay), plans exactly like the serial path, publishes the planned
/// method's phases through Scheduler::RunPhase, and merges the counters. `sink`
/// calls are serialized, and it is never called again once it returned false or
/// threw. The split-JOIN scratch lives in `lead_ctx`, with one right-half
/// buffer per scheduler worker. Marks `span`'s index-acquire, enumerate and
/// merge stages; the caller begins and finishes it. A participant that throws
/// stops every other one; the first failure is rethrown here as
/// std::runtime_error.
QueryStats RunSplitQuery(Scheduler& scheduler, uint32_t leader,
                         PathEnumerator& lead_ctx, const Query& q,
                         PathSink& sink, const EnumOptions& opts,
                         IndexCache* cache, obs::QuerySpan& span);

}  // namespace pathenum

#endif  // PATHENUM_ENGINE_SPLIT_QUERY_H_
