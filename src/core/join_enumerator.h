// IDX-JOIN (paper Algorithm 6): cut the chain query Q at position i*,
// materialize the two halves with index-based DFS (walks with (t,t)
// padding, so paths of every length <= k are covered), hash-join them on
// the cut vertex, and emit the joined tuples that form valid simple paths.
//
// All intermediate storage (half-query tuple tables, the join key set, the
// per-key group ranges, the materialization on-path marks) is reusable
// scratch: rebind the enumerator to a new index per query and the steady
// state allocates nothing (see DESIGN.md). The key/group tables, whose size
// follows the per-query index vertex count, can optionally be served from a
// caller-owned BumpArena.
#ifndef PATHENUM_CORE_JOIN_ENUMERATOR_H_
#define PATHENUM_CORE_JOIN_ENUMERATOR_H_

#include <atomic>
#include <span>
#include <vector>

#include "core/index.h"
#include "core/options.h"
#include "core/sink.h"
#include "util/memory.h"
#include "util/timer.h"

namespace pathenum {

/// Right-half group table of a split IDX-JOIN probe (DESIGN.md §8): per
/// index slot, the materialized right-half tuples rooted at that slot
/// (contiguous within the buffer of the worker that ran the slot's unit).
/// Slots that are not join keys keep count 0.
struct JoinGroup {
  const uint32_t* tuples = nullptr;
  uint64_t count = 0;
};

/// Index-based join enumerator. Not thread-safe; one instance per worker.
class JoinEnumerator {
 public:
  /// Unbound enumerator; pass the index to Run.
  JoinEnumerator() = default;

  /// Bound to a fixed index (convenience for single-query use).
  explicit JoinEnumerator(const LightweightIndex& index) : index_(&index) {}

  /// Serves the per-query-sized tables (join keys, group ranges) from
  /// `arena` instead of member vectors. The caller owns the arena's Reset
  /// cadence: reset it between queries, never during a Run. Pass nullptr
  /// to return to member storage.
  void SetArena(BumpArena* arena) { arena_ = arena; }

  /// Enumerates all paths using cut position `cut` (1 <= cut <= k-1).
  /// `counters.peak_partial_bytes` reports the materialized tuple memory
  /// (the paper's Table 7 "Partial Results" row).
  EnumCounters Run(uint32_t cut, PathSink& sink, const EnumOptions& opts = {});
  EnumCounters Run(const LightweightIndex& index, uint32_t cut, PathSink& sink,
                   const EnumOptions& opts = {});

  /// One independent materialization unit of a split IDX-JOIN (the
  /// engine's intra-query mode, DESIGN.md §8): appends the padded-walk
  /// tuples of the half query [base, base + len - 1] rooted at `start` to
  /// `out`, re-arming every per-run limit from `opts` and using this
  /// enumerator's scratch — one enumerator per worker, like Run. When
  /// `shared_used` is given, the unit additionally meters its tuples
  /// (uint32 units) against the cross-worker half budget `shared_cap`;
  /// exceeding either budget stops with out_of_memory, exactly like the
  /// serial half it replaces.
  EnumCounters MaterializeUnit(const LightweightIndex& index, uint32_t start,
                               uint32_t base, uint32_t len,
                               std::vector<uint32_t>& out,
                               const EnumOptions& opts,
                               std::atomic<size_t>* shared_used = nullptr,
                               size_t shared_cap = 0);

  /// One probe unit of a split IDX-JOIN: joins the left tuples
  /// [tuple_begin, tuple_end) of `left` against the grouped right half and
  /// emits the valid joined paths into `sink` (the split driver's
  /// BranchSink, to which cross-worker limits are delegated). `groups` is
  /// indexed by slot.
  EnumCounters ProbeUnit(const LightweightIndex& index, uint32_t cut,
                         std::span<const uint32_t> left, size_t tuple_begin,
                         size_t tuple_end, std::span<const JoinGroup> groups,
                         PathSink& sink, const EnumOptions& opts);

  /// Bytes of reusable scratch currently held in member storage (excludes
  /// arena-served tables; those are charged to the arena).
  size_t ScratchBytes() const;

 private:
  /// [begin, end) tuple range of one join key's group in `right_`.
  struct GroupRange {
    uint64_t begin = 0;
    uint64_t end = 0;
  };

  /// Generates the padded-walk tuples of Q[base : base+len-1]... i.e. all
  /// sequences of `len` slots starting at `start`, where position p of the
  /// tuple sits at query position base+p. Appends flat tuples to `out`.
  void Materialize(uint32_t start, uint32_t base, uint32_t len,
                   std::vector<uint32_t>& out);

  void MaterializeStep(uint32_t depth, uint32_t base, uint32_t len,
                       std::vector<uint32_t>& out);

  /// Re-arms every per-run limit from `opts` (shared by Run and the split
  /// units, so a limit hit by one run can never leak into the next).
  void Prepare(const LightweightIndex& index, const EnumOptions& opts);

  /// Joins one left tuple with one right tuple: compose, de-pad, validate,
  /// and emit — the single implementation behind the serial probe loop and
  /// ProbeUnit.
  void JoinPair(const uint32_t* left_tuple, uint32_t cut,
                const uint32_t* right_tuple, uint32_t right_width);

  bool ShouldStop();

  /// Cold path of ShouldStop: polls cancel/deadline/work budget, setting
  /// the matching counter flag and stop_ on a trip.
  void CheckControl();

  /// Appends the validated slot path to the pending block (DESIGN.md §9) —
  /// the block computes the shared prefix against the previous joined path
  /// and translates slots to vertex ids as the suffix is copied — flushing
  /// to the sink as blocks fill; sets stop_ on sink stop / result limit.
  void Emit(std::span<const uint32_t> slot_path);

  const LightweightIndex* index_ = nullptr;
  BumpArena* arena_ = nullptr;

  // Reusable scratch. left_/right_ hold the materialized half-query tuple
  // tables; is_key_/group_ are the join key set and per-key group ranges
  // (spans over the arena when one is set, over the _store vectors
  // otherwise); on_path_ carries the epoch-stamped duplicate marks for
  // Materialize (epoch bumps once per Materialize call).
  std::vector<uint32_t> left_;
  std::vector<uint32_t> right_;
  std::vector<uint8_t> is_key_store_;
  std::vector<GroupRange> group_store_;
  std::span<uint8_t> is_key_;
  std::span<GroupRange> group_;
  std::vector<uint32_t> on_path_;
  uint32_t epoch_ = 0;

  // Per-run state.
  EnumCounters counters_;
  Timer timer_;
  Deadline deadline_;
  const std::atomic<bool>* cancel_ = nullptr;  // null: never cancels
  uint64_t work_budget_ = 0;
  size_t tuple_limit_ = 0;  // per half, in uint32 units
  std::atomic<size_t>* shared_used_ = nullptr;  // split units only
  size_t shared_cap_ = 0;
  uint64_t check_countdown_ = 0;
  /// Separate, tighter countdown at full-tuple granularity: one materialized
  /// tuple is far more work than one search step, so deadlines/cancels must
  /// land within a bounded number of tuples, not 8192 steps (DESIGN.md §10).
  uint64_t tuple_check_countdown_ = 0;
  bool stop_ = false;
  BlockEmitter emitter_;
  uint32_t stack_[kMaxHops + 1];
};

}  // namespace pathenum

#endif  // PATHENUM_CORE_JOIN_ENUMERATOR_H_
