#include "engine/split_query.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/scheduler.h"
#include "util/timer.h"

namespace pathenum {

namespace {

/// Folds one finished unit's counters into a participant's running total.
/// Returns false when the participant should stop claiming units (sink
/// stop, timeout, memory or work budget, cancel).
bool AccumulateUnit(EnumCounters& total, const EnumCounters& unit) {
  total.num_results += unit.num_results;
  total.edges_accessed += unit.edges_accessed;
  total.partials += unit.partials;
  total.invalid_partials += unit.invalid_partials;
  total.timed_out |= unit.timed_out;
  total.stopped_by_sink |= unit.stopped_by_sink;
  total.out_of_memory |= unit.out_of_memory;
  total.cancelled |= unit.cancelled;
  total.work_exceeded |= unit.work_exceeded;
  return !unit.stopped_by_sink && !unit.timed_out && !unit.out_of_memory &&
         !unit.cancelled && !unit.work_exceeded;
}

/// Merges the per-participant totals into `out` and applies the shared
/// accounting: `root_partials`/`root_edges` charge the driver's own work
/// once (the DFS fan-out passes the root partial (s) and the per-branch
/// edge scan; the split join passes zeros — its units carry all of its
/// work), and the gate's `delivered` count against `opts.result_limit`
/// decides hit_result_limit vs stopped_by_sink. The gate caps `delivered`
/// at the limit structurally — never limit + 1, even when a unit hits the
/// limit exactly at a merge barrier.
void FinishFanout(EnumCounters& out, std::span<const EnumCounters> totals,
                  uint64_t root_partials, uint64_t root_edges,
                  const BranchGate& gate, const EnumOptions& opts) {
  for (const EnumCounters& c : totals) AccumulateUnit(out, c);
  out.partials += root_partials;
  out.edges_accessed += root_edges;
  out.num_results = gate.delivered();
  if (out.num_results >= opts.result_limit) {
    out.hit_result_limit = true;
    out.stopped_by_sink = false;
  }
  out.response_ms = gate.response_ms();
}

/// The query-wide state every participant of one split query shares.
class SplitRun {
 public:
  SplitRun(const LightweightIndex& index, PathSink& sink,
           const EnumOptions& opts, Scheduler& scheduler, uint32_t leader,
           PathEnumerator& lead_ctx)
      : index_(index),
        opts_(opts),
        scheduler_(scheduler),
        leader_(leader),
        lead_ctx_(lead_ctx),
        scratch_(lead_ctx.split_scratch()),
        participants_(scheduler.num_workers()),
        // One absolute deadline for the whole fan-out: every unit derives
        // its remaining budget from it instead of re-subtracting elapsed
        // time.
        deadline_(Deadline::AfterMs(opts.time_limit_ms)),
        gate_(opts.result_limit, opts.response_target, timer_),
        sink_(gate_, sink) {
    scratch_.counters.assign(participants_, EnumCounters{});
  }

  double elapsed_ms() const { return timer_.ElapsedMs(); }

  /// IDX-DFS: one unit per first-level branch I_t(s, k-1).
  void RunDfs(EnumCounters& out, obs::QuerySpan& span) {
    const auto branches =
        index_.OutSlotsWithin(index_.source_slot(), index_.hops() - 1);
    RunPhase(branches.size(), [&](PathEnumerator& ctx, uint32_t,
                                  uint32_t b) {
      EnumCounters c = ctx.split_dfs().RunBranch(index_, branches[b], sink_,
                                                 UnitOptions());
      // RunBranch charges both partials of its chain — (s) and
      // (s, branch). The root (s) is shared by every branch and charged
      // once below, so the merged totals equal the sequential run's.
      c.partials -= 1;
      return c;
    });
    span.Mark(obs::SpanStage::kEnumerate);
    FinishFanout(out, scratch_.counters, /*root_partials=*/1,
                 /*root_edges=*/branches.size(), gate_, opts_);
    span.Mark(obs::SpanStage::kMerge);
  }

  /// The split IDX-JOIN: the left half and every right-half start of the
  /// cut level set run as independent materialization units, meet at a
  /// merge barrier where the key/group tables are assembled, and the probe
  /// fans out over left-tuple chunks.
  void RunJoin(uint32_t cut, EnumCounters& out, obs::QuerySpan& span) {
    const uint32_t left_width = cut + 1;
    const uint32_t right_width = index_.hops() - cut + 1;

    // The left half (unit 0) and each right-half start (unit 1 + i, one
    // per vertex of C_cut) are mutually independent: level membership
    // needs nothing from the left half, and C_cut is a superset of the join
    // keys, so the extra starts only cost work the key filter discards.
    std::vector<uint32_t>& starts = scratch_.starts;
    starts.clear();
    index_.ForEachSlotInLevel(cut,
                              [&](uint32_t slot) { starts.push_back(slot); });
    std::vector<uint32_t>& left = scratch_.left;
    left.clear();
    if (scratch_.right.size() < participants_) {
      scratch_.right.resize(participants_);
    }
    std::vector<std::vector<uint32_t>>& right = scratch_.right;
    for (uint32_t w = 0; w < participants_; ++w) right[w].clear();
    std::vector<std::pair<size_t, size_t>>& ranges = scratch_.ranges;
    ranges.assign(starts.size(), {0, 0});
    std::vector<uint32_t>& range_worker = scratch_.range_worker;
    range_worker.assign(starts.size(), 0);
    std::vector<uint8_t>& is_key = scratch_.is_key;
    is_key.assign(index_.num_vertices(), 0);
    // The serial join caps each half at half the memory budget; the split
    // right half meters one shared budget across its per-participant
    // buffers. Because C_cut is a superset of the keys, a tight budget can
    // trip here on speculative tuples the serial path never materializes —
    // the documented cost of the decomposition (DESIGN.md §8). The key
    // filter bounds it: once the left half has finished, its published key
    // set lets later right units skip non-key starts.
    std::atomic<size_t> right_used{0};
    const size_t half_cap =
        opts_.partial_memory_limit_bytes / (2 * sizeof(uint32_t));
    std::atomic<bool> keys_ready{false};

    RunPhase(starts.size() + 1, [&](PathEnumerator& ctx, uint32_t worker,
                                    uint32_t u) {
      JoinEnumerator& join = ctx.split_join();
      if (u == 0) {
        const EnumCounters c =
            join.MaterializeUnit(index_, index_.source_slot(), /*base=*/0,
                                 left_width, left, UnitOptions());
        if (!Truncated(c)) {
          for (size_t off = cut; off < left.size(); off += left_width) {
            is_key[left[off]] = 1;
          }
          keys_ready.store(true, std::memory_order_release);
        }
        return c;
      }
      if (keys_ready.load(std::memory_order_acquire) &&
          !is_key[starts[u - 1]]) {
        return EnumCounters{};  // provably not a join key: skip the unit
      }
      std::vector<uint32_t>& buf = right[worker];
      const size_t begin = buf.size();
      const EnumCounters c = join.MaterializeUnit(
          index_, starts[u - 1], /*base=*/cut, right_width, buf,
          UnitOptions(), &right_used, half_cap);
      ranges[u - 1] = {begin, buf.size()};
      range_worker[u - 1] = worker;
      return c;
    });
    // The unit barrier ends the enumerate stage; key-filtering, grouping
    // and the probe fan-out below are the join's merge work.
    span.Mark(obs::SpanStage::kEnumerate);

    bool halves_truncated = false;
    for (const EnumCounters& c : scratch_.counters) {
      halves_truncated |= Truncated(c);
    }
    if (!halves_truncated) {
      // --- Merge barrier: key-filter the per-start ranges into groups.
      // The left unit completed (or a half would be truncated), so the key
      // set is published.
      std::vector<JoinGroup>& groups = scratch_.groups;
      groups.assign(index_.num_vertices(), JoinGroup{});
      for (size_t i = 0; i < starts.size(); ++i) {
        if (!is_key[starts[i]]) continue;
        const auto [begin, end] = ranges[i];
        groups[starts[i]] = {right[range_worker[i]].data() + begin,
                             (end - begin) / right_width};
      }

      // --- Probe: left-tuple chunks fan out into the serialized sink.
      const size_t num_left = left.size() / left_width;
      constexpr size_t kProbeChunk = 64;
      RunPhase((num_left + kProbeChunk - 1) / kProbeChunk,
               [&](PathEnumerator& ctx, uint32_t, uint32_t chunk) {
                 const size_t begin = static_cast<size_t>(chunk) * kProbeChunk;
                 return ctx.split_join().ProbeUnit(
                     index_, cut, left, begin,
                     std::min(begin + kProbeChunk, num_left), groups, sink_,
                     UnitOptions());
               });
    }

    FinishFanout(out, scratch_.counters, /*root_partials=*/0,
                 /*root_edges=*/0, gate_, opts_);
    span.Mark(obs::SpanStage::kMerge);
    // This query's footprint is the materialized sizes plus the key/group
    // tables, not the pooled buffers' retained capacity.
    size_t right_total = 0;
    for (uint32_t w = 0; w < participants_; ++w) right_total += right[w].size();
    out.peak_partial_bytes =
        (left.size() + right_total) * sizeof(uint32_t) +
        index_.num_vertices() * (sizeof(uint8_t) + sizeof(JoinGroup));
  }

 private:
  static bool Truncated(const EnumCounters& c) {
    return c.timed_out || c.out_of_memory || c.cancelled || c.work_exceeded;
  }

  /// Options for one unit: the result limit and response target are
  /// delegated to the shared gate; the time budget is re-derived from the
  /// query's one absolute deadline, so every unit — whenever and on
  /// whichever worker it starts — observes the same end instant.
  EnumOptions UnitOptions() const {
    EnumOptions unit_opts = opts_;
    unit_opts.result_limit = std::numeric_limits<uint64_t>::max();
    unit_opts.response_target = 0;
    unit_opts.time_limit_ms = deadline_.RemainingMs();
    return unit_opts;
  }

  /// Runs one phase of `units` units on the scheduler.
  /// Each participant claims units off the phase cursor and runs
  /// `unit(ctx, worker, u)` until the units run out or a unit's counters
  /// say stop — then it trips stop_claims, since the query-wide limit
  /// makes the other participants' remaining units moot — and folds its
  /// total into its counters slot. A participant that throws records the
  /// error and stops everyone: stop_claims ends the claiming loops and the
  /// gate's latch keeps every other participant out of the failed sink.
  /// The leader rethrows the first error after the barrier.
  template <typename Unit>
  void RunPhase(size_t units, const Unit& unit) {
    SplitPhase phase;
    phase.units = static_cast<uint32_t>(units);
    phase.stop_claims = &stop_claims_;
    phase.participate = [&](uint32_t worker, PathEnumerator& ctx) {
      try {
        EnumCounters mine;
        while (!stop_claims_.load(std::memory_order_relaxed)) {
          const uint32_t u =
              phase.cursor.fetch_add(1, std::memory_order_relaxed);
          if (u >= phase.units) break;
          if (!AccumulateUnit(mine, unit(ctx, worker, u))) {
            stop_claims_.store(true, std::memory_order_relaxed);
            break;
          }
        }
        AccumulateUnit(scratch_.counters[worker], mine);
      } catch (const std::exception& e) {
        Fail(e.what());
      } catch (...) {
        Fail("split query participant failed");
      }
    };
    scheduler_.RunPhase(leader_, lead_ctx_, phase);
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_.empty()) throw std::runtime_error(error_);
  }

  void Fail(const char* what) {
    stop_claims_.store(true, std::memory_order_relaxed);
    gate_.Stop();
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (error_.empty()) error_ = what;
  }

  const LightweightIndex& index_;
  const EnumOptions& opts_;
  Scheduler& scheduler_;
  const uint32_t leader_;
  PathEnumerator& lead_ctx_;
  SplitScratch& scratch_;
  const uint32_t participants_;
  Timer timer_;  // enumeration stopwatch (response_ms, enumerate_ms)
  const Deadline deadline_;
  BranchGate gate_;
  BranchSink sink_;
  std::atomic<bool> stop_claims_{false};
  std::mutex error_mutex_;
  std::string error_;  // first participant failure
};

}  // namespace

QueryStats RunSplitQuery(Scheduler& scheduler, uint32_t leader,
                         PathEnumerator& lead_ctx, const Query& q,
                         PathSink& sink, const EnumOptions& opts,
                         IndexCache* cache, obs::QuerySpan& span) {
  QueryStats stats;
  Timer total;
  // The same BuildOptionsFor fingerprint and PlanExecution pipeline as the
  // serial path: a split query shares index-cache entries with — and picks
  // the same method as — its serial equivalent.
  const std::shared_ptr<const LightweightIndex> index = lead_ctx.AcquireIndex(
      q, PathEnumerator::BuildOptionsFor(q, opts), cache, stats);
  span.SetIndexOutcome(stats.index_cache_hit, false);
  span.Mark(obs::SpanStage::kIndexAcquire);

  if (index->build_stats().interrupted) {
    // Deadline/cancel tripped the build: no fan-out (the build stub has no
    // usable slots anyway).
    FinalizeInterruptedBuild(*index, total.ElapsedMs(), stats);
    return stats;
  }

  const PathEnumerator::ExecutionPlan plan =
      PathEnumerator::PlanExecution(*index, opts, stats);
  stats.method = plan.method;
  stats.cut_position = plan.cut;

  double enumerate_ms = 0.0;
  if (index->source_slot() != kInvalidSlot) {
    SplitRun run(*index, sink, opts, scheduler, leader, lead_ctx);
    if (plan.method == Method::kJoin) {
      run.RunJoin(plan.cut, stats.counters, span);
    } else {
      run.RunDfs(stats.counters, span);
    }
    enumerate_ms = run.elapsed_ms();
  }
  FinalizeRun(stats, stats.counters, enumerate_ms, total.ElapsedMs());
  return stats;
}

}  // namespace pathenum
