#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include "core/path_enum.h"
#include "util/stats.h"

namespace perfbench {

uint64_t Mix(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Pct(std::vector<double> values, double p) {
  return pathenum::PercentileInPlace(values, p);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / 1048576.0;
}

bool MeasuringSink::OnPath(std::span<const VertexId> path) {
  Note(1);
  if (collect_) Append(path);
  return true;
}

PathSink::BlockResult MeasuringSink::OnBlock(const PathBlockView& block) {
  Note(block.count);
  if (!collect_) return {block.count, false};
  return pathenum::ForEachPathInBlock(block, [this](auto path) {
    Append(path);
    return true;
  });
}

void MeasuringSink::Append(std::span<const VertexId> path) {
  vertices_.insert(vertices_.end(), path.begin(), path.end());
  offsets_.push_back(static_cast<uint32_t>(vertices_.size()));
}

std::string ValidatePaths(const GraphView& view, const Query& q,
                          const MeasuringSink& sink) {
  const auto& verts = sink.vertices();
  const auto& offs = sink.offsets();
  if (offs.size() - 1 != sink.count()) {
    return "collected " + std::to_string(offs.size() - 1) + " of " +
           std::to_string(sink.count()) + " delivered paths";
  }
  std::unordered_set<uint64_t> seen;
  seen.reserve(offs.size());
  for (size_t i = 0; i + 1 < offs.size(); ++i) {
    const std::span<const VertexId> p(verts.data() + offs[i],
                                      offs[i + 1] - offs[i]);
    const std::string where = "path " + std::to_string(i) + ": ";
    if (p.size() < 2 || p.front() != q.source || p.back() != q.target) {
      return where + "does not run s -> t";
    }
    if (p.size() - 1 > q.hops) return where + "longer than k";
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t j = 0; j < p.size(); ++j) {
      for (size_t m = 0; m < j; ++m) {
        if (p[m] == p[j]) return where + "repeats a vertex";
      }
      if (j + 1 < p.size() && !view.HasEdge(p[j], p[j + 1])) {
        return where + "uses a missing edge";
      }
      h = (h ^ p[j]) * 0x100000001b3ULL;
    }
    h = Mix(h, p.size());
    if (!seen.insert(h).second) return where + "delivered twice";
  }
  return "";
}

uint64_t CheckSamples(std::vector<Sample>& samples) {
  uint64_t mismatches = 0;
  // One reference enumerator per snapshot (its scratch is O(|V|)).
  std::unordered_map<const GraphView*, std::unique_ptr<pathenum::PathEnumerator>>
      refs;
  for (Sample& s : samples) {
    auto& ref = refs[s.snapshot.get()];
    if (ref == nullptr) {
      ref = std::make_unique<pathenum::PathEnumerator>(*s.snapshot);
    }
    pathenum::CountingSink counter;
    const pathenum::QueryStats st = ref->Run(s.query, counter, s.opts);
    std::string problem;
    if (!Delivered(s.state)) {
      problem = "terminal state " + std::to_string(static_cast<int>(s.state));
    } else if (counter.count() != s.delivered) {
      problem = "delivered " + std::to_string(s.delivered) +
                " paths, reference " + std::to_string(counter.count());
    } else if (!Delivered(st.counters.TerminalState())) {
      problem = "reference run did not finish";
    } else if (s.validated) {
      problem = s.path_error;
    } else if (s.sink != nullptr) {
      problem = ValidatePaths(*s.snapshot, s.query, *s.sink);
    }
    if (!problem.empty()) {
      ++mismatches;
      std::fprintf(stderr, "check failed: q(%u, %u, %u) @v%lu: %s\n",
                   s.query.source, s.query.target, s.query.hops,
                   static_cast<unsigned long>(s.snapshot->version()),
                   problem.c_str());
    }
    s.sink.reset();
  }
  return mismatches;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), instance_([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1);
      }()) {}

SpanRecorder::Buffer& SpanRecorder::ThreadBuffer() {
  thread_local uint64_t owner = 0;
  thread_local Buffer* buffer = nullptr;
  if (owner != instance_) {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    owner = instance_;
  }
  return *buffer;
}

uint64_t SpanRecorder::Open(const char* name, uint64_t parent,
                            uint64_t query) {
  if (!enabled_) return 0;
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  static std::atomic<uint32_t> next_thread{0};
  thread_local const uint32_t thread = next_thread.fetch_add(1);
  ThreadBuffer().push_back({name, id, parent, query, thread, Clock::now(), {}});
  return id;
}

void SpanRecorder::Close(uint64_t id) {
  if (id == 0) return;
  const Clock::time_point now = Clock::now();
  Buffer& spans = ThreadBuffer();
  // Spans close in LIFO order: search from the back.
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (it->id == id) {
      it->end = now;
      return;
    }
  }
}

std::vector<SpanRecorder::Span> SpanRecorder::AllSpans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
  return all;
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : AllSpans()) {
    if (name == s.name) out.push_back(MsBetween(s.start, s.end));
  }
  return out;
}

double SpanRecorder::UnattributedFrac() const {
  const std::vector<Span> spans = AllSpans();
  std::unordered_map<uint64_t, std::vector<std::pair<Clock::time_point,
                                                     Clock::time_point>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  double total = 0.0;
  double self = 0.0;
  for (const Span& s : spans) {
    if (s.parent != 0) continue;
    const double dur = MsBetween(s.start, s.end);
    auto& kids = children[s.id];
    if (kids.empty()) continue;  // a leaf root is itself one layer's call
    total += dur;
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    Clock::time_point cursor = s.start;
    for (const auto& [a, b] : kids) {
      const Clock::time_point lo = std::max(a, cursor);
      const Clock::time_point hi = std::min(b, s.end);
      if (hi > lo) {
        covered += MsBetween(lo, hi);
        cursor = hi;
      }
    }
    self += dur - covered;
  }
  return total > 0.0 ? self / total : 0.0;
}

void SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : AllSpans()) {
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - origin_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << ts << ",\"dur\":" << dur << ",\"args\":{\"id\":"
        << s.id << ",\"parent\":" << s.parent << ",\"query\":" << s.query
        << "}}";
    first = false;
  }
  out << "\n]}\n";
}

size_t SpanRecorder::size() const { return AllSpans().size(); }

void Metrics::PrintTable() const {
  for (const Item& m : items_) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void Metrics::PrintResultLine(bool correct, uint64_t attempted,
                              uint64_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %lu, \"failed\": %lu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long>(attempted),
              static_cast<unsigned long>(failed));
  for (size_t i = 0; i < items_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", items_[i].name.c_str(), items_[i].value,
                items_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
