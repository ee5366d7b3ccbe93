// Intra-query splitting (DESIGN.md §8): the one driver that fans a single
// query's work out across an engine's workers. A first-level IDX-DFS branch
// and a split IDX-JOIN materialization or probe unit are all
// dependence-disjoint units (PAPERS.md: Zhou, Heath & Harris): any
// participant may claim any unit of a phase, in any order, off a shared
// cursor. Both engines call RunSplitQuery; they differ only in how workers
// join a phase — QueryEngine gangs its whole pool, AsyncEngine lets idle
// workers help between queue pops (SplitRecruit).
#ifndef PATHENUM_ENGINE_SPLIT_QUERY_H_
#define PATHENUM_ENGINE_SPLIT_QUERY_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "core/options.h"
#include "core/query.h"
#include "core/sink.h"
#include "engine/index_cache.h"
#include "engine/query_context.h"
#include "obs/span.h"

namespace pathenum {

/// One fan-out phase of a split query: `units` units claimed off `cursor`
/// until it runs past them or `stop_claims` trips.
struct SplitPhase {
  /// One participant's share of the phase: `worker` is its id — below the
  /// driver's `participants`, distinct among concurrent participants — and
  /// `ctx` its own context. Never throws: the driver records a failure,
  /// stops the phase, and rethrows it on the leader after the barrier.
  std::function<void(uint32_t worker, QueryContext& ctx)> participate;
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

/// An engine's hook for one phase: runs `phase.participate` on every worker
/// it recruits and returns only once all of them have left — the phase's
/// barrier.
using SplitRecruit = std::function<void(SplitPhase& phase)>;

/// Runs one validated query with its work split across workers: acquires
/// the index through `leader` (and `cache`, when given — the index cache
/// only, since a split run's sink interleaving is nondeterministic and so
/// never recorded for replay), plans exactly like the serial path, fans out
/// the planned method's units through `recruit`, and merges the counters.
/// `sink` calls are serialized, and it is never called again once it
/// returned false or threw. The split-JOIN scratch lives in `leader`, with
/// one right-half buffer per participant id below `participants`.
/// Marks `span`'s index-acquire, enumerate and merge stages; the caller
/// begins and finishes it. A participant that throws stops every other
/// one; the first failure is rethrown here as std::runtime_error.
QueryStats RunSplitQuery(QueryContext& leader, const Query& q, PathSink& sink,
                         const EnumOptions& opts, IndexCache* cache,
                         uint32_t participants, const SplitRecruit& recruit,
                         obs::QuerySpan& span);

}  // namespace pathenum

#endif  // PATHENUM_ENGINE_SPLIT_QUERY_H_
