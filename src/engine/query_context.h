// Per-worker reusable query state. The scheduler (engine/scheduler.h) keeps
// one QueryContext per worker and hands one to each task or split phase a
// worker takes on; everything a query needs scratch for (index-construction
// BFS fields, enumerator stacks and epoch-stamped mark arrays, join tuple
// tables, the bump arena behind per-query-sized tables)
// lives inside the context's PathEnumerator and is recycled query after
// query — the zero-allocation steady state of DESIGN.md §Engine.
#ifndef PATHENUM_ENGINE_QUERY_CONTEXT_H_
#define PATHENUM_ENGINE_QUERY_CONTEXT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/path_enum.h"
#include "engine/index_cache.h"
#include "obs/span.h"

namespace pathenum {

/// Grow-only scratch of the split queries one context leads (DESIGN.md §8):
/// the split IDX-JOIN's unit and merge tables plus the per-participant
/// counters. Reused query after query, so the split steady state allocates
/// nothing (§5); concurrent split queries have distinct leaders and so
/// never share it.
struct SplitScratch {
  std::vector<uint32_t> starts;  // right-half units: the cut level set
  std::vector<uint32_t> left;    // left-half tuples
  /// Right-half tuples, one buffer per participant id.
  std::vector<std::vector<uint32_t>> right;
  /// Per start: its tuple range in right[range_worker[i]].
  std::vector<std::pair<size_t, size_t>> ranges;
  std::vector<uint32_t> range_worker;
  std::vector<uint8_t> is_key;    // slot-indexed join-key set
  std::vector<JoinGroup> groups;  // slot-indexed right-half groups
  std::vector<EnumCounters> counters;  // per participant id

  size_t Bytes() const;
};

/// One worker's reusable execution state. Not thread-safe: a context is
/// owned by exactly one worker at a time.
class QueryContext {
 public:
  /// Accepts a plain Graph (implicit borrowing view) or a live snapshot.
  explicit QueryContext(const GraphView& view) : enumerator_(view) {}

  /// Points the context at a different snapshot (cheap; scratch survives).
  void Rebind(const GraphView& view) { enumerator_.Rebind(view); }

  /// Runs one query through the full PathEnum pipeline with this context's
  /// pooled scratch. Every per-run limit (deadline, result limit, sink
  /// stop) is re-armed from `opts`, so a limit hit by one query can never
  /// leak into the next one on the same context. Cache-aware (DESIGN.md
  /// §6): consults `cache` for a replayable result set first, then for a
  /// shared prebuilt index (AcquireIndex: building and publishing on miss,
  /// coalescing with concurrent builders of the same key), and records
  /// completed runs back into the result cache. Runs uncached when `cache`
  /// is null. The cache may be shared across contexts/threads; everything
  /// else in the context stays single-owner.
  /// `span` (optional) gets the index-acquire/enumerate stage marks and the
  /// cache-outcome flags (DESIGN.md §12); the caller owns its lifecycle
  /// (Begin before, Finish after).
  QueryStats RunCached(const Query& q, PathSink& sink, const EnumOptions& opts,
                       IndexCache* cache, obs::QuerySpan* span = nullptr);

  /// Builds — or fetches from `cache`, when one is given — the per-query index
  /// of a plain (RunCached) or split (DESIGN.md §8) run. `build_opts` must come
  /// from PathEnumerator::BuildOptionsFor so split and serial executions share
  /// cache fingerprints. Charges build stats to `stats` on a miss and flags
  /// `stats.index_cache_hit` on a hit; always fills the index size fields.
  std::shared_ptr<const LightweightIndex> AcquireIndex(
      const Query& q, const IndexBuilder::Options& build_opts,
      IndexCache* cache, QueryStats& stats);

  /// Per-worker enumerator handles for intra-query splitting (DESIGN.md
  /// §8): each branch/materialization/probe unit runs on the scratch of
  /// the worker that claimed it. Single-owner like everything else here.
  DfsEnumerator& split_dfs() { return enumerator_.dfs_; }
  JoinEnumerator& split_join() { return enumerator_.join_; }

  /// Scratch of the split queries this context leads.
  SplitScratch& split_scratch() { return split_scratch_; }

  /// Bytes of reusable scratch currently held (see
  /// PathEnumerator::ScratchBytes), split scratch included.
  size_t ScratchBytes() const {
    return enumerator_.ScratchBytes() + split_scratch_.Bytes();
  }

 private:
  PathEnumerator enumerator_;
  SplitScratch split_scratch_;
};

}  // namespace pathenum

#endif  // PATHENUM_ENGINE_QUERY_CONTEXT_H_
