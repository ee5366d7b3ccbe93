#include "core/join_enumerator.h"

#include <algorithm>
#include <cassert>

#include "util/fault_injection.h"

namespace pathenum {

namespace {
constexpr uint64_t kCheckInterval = 8192;
/// Control poll cadence at full-tuple granularity (one tuple is far more
/// work than one search step): a deadline or cancel lands within this many
/// materialized tuples. One clock read per 64 tuples is noise.
constexpr uint64_t kTupleCheckInterval = 64;
}  // namespace

EnumCounters JoinEnumerator::Run(uint32_t cut, PathSink& sink,
                                 const EnumOptions& opts) {
  PATHENUM_CHECK_MSG(index_ != nullptr, "enumerator not bound to an index");
  return Run(*index_, cut, sink, opts);
}

void JoinEnumerator::Prepare(const LightweightIndex& index,
                             const EnumOptions& opts) {
  // stack_ holds one slot per tuple position; a full-width tuple has at
  // most k + 1 of them.
  static_assert(sizeof(stack_) / sizeof(stack_[0]) == kMaxHops + 1);
  assert(index.hops() <= kMaxHops);
  index_ = &index;
  counters_ = EnumCounters{};
  timer_.Reset();
  deadline_ = Deadline::AfterMs(opts.time_limit_ms);
  cancel_ = opts.cancel.flag();
  work_budget_ = opts.work_budget_edges;
  // Each half may use half the budget (tuples are uint32 slots).
  tuple_limit_ = opts.partial_memory_limit_bytes / (2 * sizeof(uint32_t));
  shared_used_ = nullptr;
  shared_cap_ = 0;
  check_countdown_ = kCheckInterval;
  tuple_check_countdown_ = kTupleCheckInterval;
  stop_ = false;
  if (on_path_.size() < index.num_vertices()) {
    on_path_.resize(index.num_vertices(), 0);
  }
}

EnumCounters JoinEnumerator::Run(const LightweightIndex& index, uint32_t cut,
                                 PathSink& sink, const EnumOptions& opts) {
  const uint32_t k = index.hops();
  PATHENUM_CHECK_MSG(cut >= 1 && cut < k, "cut position out of range");
  Prepare(index, opts);
  emitter_.Arm(&sink, &counters_, &timer_, opts.result_limit,
               opts.response_target);

  const uint32_t n = index.num_vertices();
  left_.clear();
  right_.clear();
  if (arena_ != nullptr) {
    is_key_ = arena_->AllocateSpan<uint8_t>(n);
    group_ = arena_->AllocateSpan<GroupRange>(n);
  } else {
    if (is_key_store_.size() < n) is_key_store_.resize(n);
    if (group_store_.size() < n) group_store_.resize(n);
    is_key_ = {is_key_store_.data(), n};
    group_ = {group_store_.data(), n};
  }
  std::fill(is_key_.begin(), is_key_.end(), uint8_t{0});
  std::fill(group_.begin(), group_.end(), GroupRange{});

  const uint32_t s_slot = index.source_slot();
  if (s_slot == kInvalidSlot) return counters_;

  // --- Evaluate Q[0:cut]: tuples of cut+1 slots starting at s (line 2). --
  const uint32_t left_width = cut + 1;
  Materialize(s_slot, /*base=*/0, left_width, left_);
  counters_.partials += left_.size() / left_width;
  if (stop_) {
    // This query's footprint is the materialized sizes, not the pooled
    // buffers' retained capacity (which carries the heaviest query this
    // enumerator ever served).
    counters_.peak_partial_bytes = left_.size() * sizeof(uint32_t);
    return counters_;
  }

  // --- Collect the join keys C = { r[cut] : r in R_a } (line 3). ---------
  for (size_t off = cut; off < left_.size(); off += left_width) {
    is_key_[left_[off]] = 1;
  }

  // --- Evaluate Q[cut:k] grouped by starting vertex (lines 4-5). ---------
  const uint32_t right_width = k - cut + 1;
  for (uint32_t v = 0; v < n && !stop_; ++v) {
    if (!is_key_[v]) continue;
    const uint64_t begin = right_.size() / right_width;
    Materialize(v, /*base=*/cut, right_width, right_);
    group_[v] = {begin, right_.size() / right_width};
  }
  counters_.partials += right_.size() / right_width;
  counters_.peak_partial_bytes = (left_.size() + right_.size()) *
                                     sizeof(uint32_t) +
                                 is_key_.size_bytes() + group_.size_bytes();
  if (stop_) return counters_;

  // --- Hash join R_a ⋈ R_b and validate (lines 6-8). ---------------------
  for (size_t l = 0; l < left_.size() && !stop_; l += left_width) {
    const uint32_t key = left_[l + cut];
    const auto [gb, ge] = group_[key];
    for (uint64_t r = gb; r < ge; ++r) {
      if (ShouldStop()) break;
      JoinPair(left_.data() + l, cut, right_.data() + r * right_width,
               right_width);
    }
  }
  // Deliver the pending tail block (covers the timeout path, too: every
  // joined path found before the deadline still reaches the sink).
  emitter_.Flush();
  return counters_;
}

void JoinEnumerator::JoinPair(const uint32_t* left_tuple, uint32_t cut,
                              const uint32_t* right_tuple,
                              uint32_t right_width) {
  const uint32_t t_slot = index_->target_slot();
  uint32_t joined[kMaxHops + 1];
  // Compose the padded walk: left tuple + right tuple minus join key.
  for (uint32_t i = 0; i <= cut; ++i) joined[i] = left_tuple[i];
  for (uint32_t i = 1; i < right_width; ++i) joined[cut + i] = right_tuple[i];
  // De-pad: everything after the first t is padding by construction.
  uint32_t end = 0;
  while (joined[end] != t_slot) ++end;
  // Validity: a simple path has pairwise-distinct vertices.
  for (uint32_t i = 1; i <= end; ++i) {
    for (uint32_t j = 0; j < i; ++j) {
      if (joined[i] == joined[j]) {
        counters_.invalid_partials++;
        return;
      }
    }
  }
  Emit({joined, end + 1});
}

EnumCounters JoinEnumerator::MaterializeUnit(const LightweightIndex& index,
                                             uint32_t start, uint32_t base,
                                             uint32_t len,
                                             std::vector<uint32_t>& out,
                                             const EnumOptions& opts,
                                             std::atomic<size_t>* shared_used,
                                             size_t shared_cap) {
  Prepare(index, opts);  // materialization never emits (emitter stays unarmed)
  shared_used_ = shared_used;
  shared_cap_ = shared_cap;
  const size_t before = out.size();
  Materialize(start, base, len, out);
  shared_used_ = nullptr;
  counters_.partials += (out.size() - before) / len;
  counters_.peak_partial_bytes = (out.size() - before) * sizeof(uint32_t);
  return counters_;
}

EnumCounters JoinEnumerator::ProbeUnit(const LightweightIndex& index,
                                       uint32_t cut,
                                       std::span<const uint32_t> left,
                                       size_t tuple_begin, size_t tuple_end,
                                       std::span<const JoinGroup> groups,
                                       PathSink& sink,
                                       const EnumOptions& opts) {
  const uint32_t k = index.hops();
  PATHENUM_CHECK_MSG(cut >= 1 && cut < k, "cut position out of range");
  Prepare(index, opts);
  emitter_.Arm(&sink, &counters_, &timer_, opts.result_limit,
               opts.response_target);
  const uint32_t left_width = cut + 1;
  const uint32_t right_width = k - cut + 1;
  for (size_t l = tuple_begin; l < tuple_end && !stop_; ++l) {
    const uint32_t* lt = left.data() + l * left_width;
    const JoinGroup& group = groups[lt[cut]];
    for (uint64_t r = 0; r < group.count; ++r) {
      if (ShouldStop()) break;
      JoinPair(lt, cut, group.tuples + r * right_width, right_width);
    }
  }
  emitter_.Flush();
  return counters_;
}

size_t JoinEnumerator::ScratchBytes() const {
  return VectorBytes(left_) + VectorBytes(right_) + VectorBytes(is_key_store_) +
         VectorBytes(group_store_) + VectorBytes(on_path_);
}

bool JoinEnumerator::ShouldStop() {
  if (stop_) return true;
  if (check_countdown_-- == 0) {
    check_countdown_ = kCheckInterval;
    CheckControl();
  }
  return stop_;
}

void JoinEnumerator::CheckControl() {
  // Precedence mirrors EnumCounters::TerminalState (cancel > deadline >
  // work budget).
  if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
    counters_.cancelled = true;
    stop_ = true;
  } else if (deadline_.Expired()) {
    counters_.timed_out = true;
    stop_ = true;
  } else if (counters_.edges_accessed >= work_budget_) {
    counters_.work_exceeded = true;
    stop_ = true;
  }
}

void JoinEnumerator::Emit(std::span<const uint32_t> slot_path) {
  PathBlock& block = emitter_.block();
  if (!block.HasRoomFor(static_cast<uint32_t>(slot_path.size()))) {
    if (!emitter_.Flush()) {
      stop_ = true;  // sink stop / limit at block granularity: drop & stop
      return;
    }
    // Block-emission-granularity cancellation poll (see DfsEnumerator).
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      counters_.cancelled = true;
      stop_ = true;
      return;
    }
  }
  block.Append(slot_path, index_->slot_to_vertex());
  if (emitter_.AtResultLimit()) {
    emitter_.Flush();  // sets hit_result_limit (or stopped_by_sink first)
    stop_ = true;
  }
}

void JoinEnumerator::Materialize(uint32_t start, uint32_t base, uint32_t len,
                                 std::vector<uint32_t>& out) {
  // One epoch per half-query DFS: clears every on-path mark in O(1). The
  // padding vertex t is never marked (its self-loop must repeat freely).
  if (++epoch_ == 0) {
    std::fill(on_path_.begin(), on_path_.end(), 0);
    epoch_ = 1;
  }
  if (start != index_->target_slot()) on_path_[start] = epoch_;
  stack_[0] = start;
  MaterializeStep(0, base, len, out);
}

void JoinEnumerator::MaterializeStep(uint32_t depth, uint32_t base,
                                     uint32_t len,
                                     std::vector<uint32_t>& out) {
  // Line 10 of Alg. 6: a full-width tuple is materialized.
  if (depth + 1 == len) {
    fault::Hit(fault::Site::kJoinMaterialize);
    if (--tuple_check_countdown_ == 0) {
      tuple_check_countdown_ = kTupleCheckInterval;
      CheckControl();
      if (stop_) return;
    }
    if (out.size() >= tuple_limit_ ||
        (shared_used_ != nullptr &&
         shared_used_->fetch_add(len, std::memory_order_relaxed) + len >
             shared_cap_)) {
      counters_.out_of_memory = true;
      stop_ = true;
      return;
    }
    out.insert(out.end(), stack_, stack_ + len);
    return;
  }
  const uint32_t k = index_->hops();
  const uint32_t t_slot = index_->target_slot();
  // Lines 11-13: extend with I_t(v, k - base - L(M) - 1); `base` shifts the
  // budget for the right half, which starts at query position i*.
  const auto nbrs =
      index_->OutSlotsWithin(stack_[depth], k - base - depth - 1);
  counters_.edges_accessed += nbrs.size();
  for (const uint32_t next : nbrs) {
    if (ShouldStop()) return;
    if (next != t_slot) {
      // Duplicate non-t vertices can never survive the validity check;
      // reject them inside the half via the O(1) epoch mark (the t
      // self-entry is the padding and may repeat).
      if (on_path_[next] == epoch_) continue;
      on_path_[next] = epoch_;
    }
    stack_[depth + 1] = next;
    MaterializeStep(depth + 1, base, len, out);
    if (next != t_slot) on_path_[next] = 0;
  }
}

}  // namespace pathenum
