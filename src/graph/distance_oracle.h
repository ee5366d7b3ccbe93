// Pruned landmark labeling (2-hop distance labels) for exact distance
// queries — the "global index built in an offline preprocessing step" the
// paper sketches as future work in §7.5, after Akiba, Iwata & Yoshida
// (SIGMOD 2013), here in its directed-graph form.
//
// Each vertex carries two label sets:
//   L_out(v) = {(h, d(v->h))}  and  L_in(v) = {(h, d(h->v))}
// over degree-ranked hub vertices h, such that
//   d(s, t) = min over common h of  d(s->h) + d(h->t).
// Construction performs one pruned forward and one pruned backward BFS per
// hub; a visit is pruned when the labels built so far already certify a
// distance no larger than the tentative one.
//
// PathEnum uses the labeling (a) as the label store of LiveDistanceOracle
// (live/live_oracle.h), through which the engines reject queries with
// d(s,t) > k before any per-query work — query-time rejection always goes
// through that live oracle, which keeps the claims sound under updates —
// and (b) for fast dist <= 3 checks in workload generation. It complements
// — never replaces — the per-query light-weight index, exactly as §7.5
// envisions.
#ifndef PATHENUM_GRAPH_DISTANCE_ORACLE_H_
#define PATHENUM_GRAPH_DISTANCE_ORACLE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/common.h"

namespace pathenum {

/// Immutable 2-hop distance labeling. Build once per graph snapshot.
class PrunedLandmarkIndex {
 public:
  struct BuildStats {
    double build_ms = 0.0;
    double avg_label_entries = 0.0;  // per direction, per vertex
    size_t memory_bytes = 0;
  };

  PrunedLandmarkIndex() = default;

  /// Builds the labeling for `g`. O(sum of label sizes) space; construction
  /// cost grows with graph density — intended for graphs up to a few
  /// million edges (the catalog scale).
  static PrunedLandmarkIndex Build(const Graph& g);

  /// Exact shortest-path distance s -> t; kInfDistance when unreachable.
  uint32_t Distance(VertexId s, VertexId t) const;

  /// True iff d(s, t) <= bound. Same cost as Distance.
  bool Within(VertexId s, VertexId t, uint32_t bound) const;

  VertexId num_vertices() const {
    return static_cast<VertexId>(out_offsets_.empty()
                                     ? 0
                                     : out_offsets_.size() - 1);
  }

  const BuildStats& build_stats() const { return stats_; }

  size_t MemoryBytes() const;

  /// One label entry: (hub rank, distance). Public for the construction
  /// helpers in the implementation file; not part of the query API.
  struct Entry {
    VertexId hub;   // rank-space hub id (ranks are comparable across labels)
    uint32_t dist;
  };

 private:
  std::span<const Entry> OutLabel(VertexId v) const {
    return {out_entries_.data() + out_offsets_[v],
            out_entries_.data() + out_offsets_[v + 1]};
  }

  std::span<const Entry> InLabel(VertexId v) const {
    return {in_entries_.data() + in_offsets_[v],
            in_entries_.data() + in_offsets_[v + 1]};
  }

  // CSR-packed labels, entries sorted ascending by hub rank so queries are
  // a linear merge.
  std::vector<uint64_t> out_offsets_;
  std::vector<Entry> out_entries_;
  std::vector<uint64_t> in_offsets_;
  std::vector<Entry> in_entries_;
  BuildStats stats_;
};

}  // namespace pathenum

#endif  // PATHENUM_GRAPH_DISTANCE_ORACLE_H_
