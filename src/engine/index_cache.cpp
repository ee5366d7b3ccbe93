#include "engine/index_cache.h"

#include <algorithm>
#include <chrono>

#include "util/fault_injection.h"
#include "util/timer.h"

namespace pathenum {

namespace {

/// Fixed per-entry bookkeeping charge (list node, map slot, control block).
constexpr size_t kEntryOverheadBytes = 128;

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

uint64_t IndexOptionsFingerprint(const IndexBuildOptions& opts) {
  PATHENUM_CHECK_MSG(opts.filter == nullptr,
                     "predicate-filtered index builds are not cacheable");
  return (opts.build_in_direction ? 1u : 0u) |
         (opts.collect_level_stats ? 2u : 0u) |
         (opts.prune_forward_bfs ? 4u : 0u) |
         (opts.build_edge_ids ? 8u : 0u);
}

uint64_t ResultOptionsFingerprint(const EnumOptions& opts) {
  // Method selection is what can reorder the emitted sequence; under kAuto
  // the estimator inputs (tau, the ablation knob) decide which method runs.
  uint64_t fp = 0x100 | static_cast<uint64_t>(opts.method);
  fp |= opts.use_preliminary_estimator ? 0x200 : 0;
  uint64_t tau_bits = 0;
  static_assert(sizeof(tau_bits) == sizeof(opts.tau));
  __builtin_memcpy(&tau_bits, &opts.tau, sizeof(tau_bits));
  return fp ^ (tau_bits * 0x9e3779b97f4a7c15ULL);
}

// ---------------------------------------------------------------------------
// IndexCache
// ---------------------------------------------------------------------------

struct IndexCache::Shard {
  struct IndexEntry {
    CacheKey key;
    std::shared_ptr<const LightweightIndex> index;
    size_t bytes = 0;
    /// Snapshot version the entry was published at: valid for every version
    /// in [first_version, cache version] (surviving an epoch proves the
    /// epoch's updates do not affect the key).
    uint64_t first_version = 0;
  };
  struct ResultEntry {
    CacheKey key;
    std::shared_ptr<const CachedResultSet> result;
    size_t bytes = 0;
    uint64_t first_version = 0;
    std::chrono::steady_clock::time_point inserted_at;
  };
  /// One in-flight build; waiters block on the shard cv until `done`.
  struct Inflight {
    bool done = false;
    bool failed = false;
    uint64_t generation = 0;
    uint64_t view_version = 0;  // the builder's snapshot
    std::shared_ptr<const LightweightIndex> index;
  };

  mutable std::mutex mutex;
  std::condition_variable cv;
  std::list<IndexEntry> lru;  // front = most recently used
  std::unordered_map<CacheKey, std::list<IndexEntry>::iterator, CacheKeyHash>
      map;
  std::unordered_map<CacheKey, std::shared_ptr<Inflight>, CacheKeyHash>
      building;
  size_t bytes = 0;

  std::list<ResultEntry> result_lru;
  std::unordered_map<CacheKey, std::list<ResultEntry>::iterator, CacheKeyHash>
      result_map;
  size_t result_bytes = 0;

  /// Admission counter: misses per key since the last Clear(). Coarsely
  /// bounded — when it outgrows kSeenCap it resets, which at worst delays
  /// an admission by one extra miss.
  std::unordered_map<CacheKey, uint32_t, CacheKeyHash> seen;

  static constexpr size_t kSeenCap = 1u << 16;
};

IndexCache::IndexCache(const IndexCacheOptions& opts) : opts_(opts) {
  const uint32_t shards = RoundUpPow2(std::max(1u, opts_.shards));
  opts_.shards = shards;
  shard_mask_ = shards - 1;
  index_budget_per_shard_ = std::max<size_t>(1, opts_.max_index_bytes / shards);
  result_budget_per_shard_ = opts_.max_result_bytes / shards;
  shards_ = std::make_unique<Shard[]>(shards);

  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  const std::string label =
      "cache=\"" + std::to_string(reg.NextInstanceId()) + "\"";
  const auto counter = [&](const char* name, const obs::ShardedCounter& c) {
    reg.RegisterCounter(this, name, label, &c);
  };
  counter("pathenum_cache_index_hits_total", index_hits_);
  counter("pathenum_cache_index_misses_total", index_misses_);
  counter("pathenum_cache_index_evictions_total", index_evictions_);
  counter("pathenum_cache_coalesced_builds_total", coalesced_builds_);
  counter("pathenum_cache_result_hits_total", result_hits_);
  counter("pathenum_cache_result_misses_total", result_misses_);
  counter("pathenum_cache_result_evictions_total", result_evictions_);
  counter("pathenum_cache_result_inserts_total", result_inserts_);
  counter("pathenum_cache_result_rejects_total", result_rejects_);
  counter("pathenum_cache_admission_bypasses_total", admission_bypasses_);
  counter("pathenum_cache_invalidation_evictions_total",
          invalidation_evictions_);
  counter("pathenum_cache_result_ttl_evictions_total", result_ttl_evictions_);
  reg.RegisterGauge(this, "pathenum_cache_index_bytes", label, [this] {
    return static_cast<double>(index_bytes_.load(std::memory_order_relaxed));
  });
  reg.RegisterGauge(this, "pathenum_cache_result_bytes", label, [this] {
    return static_cast<double>(result_bytes_.load(std::memory_order_relaxed));
  });
}

IndexCache::~IndexCache() {
  obs::MetricRegistry::Global().UnregisterOwner(this);
}

IndexCache::Shard& IndexCache::ShardFor(const CacheKey& key) const {
  return shards_[CacheKeyHash{}(key) & shard_mask_];
}

std::shared_ptr<const LightweightIndex> IndexCache::GetOrBuild(
    const CacheKey& key, const std::function<LightweightIndex()>& build,
    bool* was_hit, uint64_t view_version) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<Shard::Inflight> inflight;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    while (true) {
      const auto it = shard.map.find(key);
      if (it != shard.map.end() &&
          it->second->first_version <= view_version) {
        // Published at or before this caller's snapshot and survived every
        // epoch since: valid for the caller's version.
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        index_hits_.Inc();
        if (was_hit != nullptr) *was_hit = true;
        return it->second->index;
      }
      const auto bit = shard.building.find(key);
      if (bit == shard.building.end()) break;  // this thread builds
      const std::shared_ptr<Shard::Inflight> pending = bit->second;
      if (pending->generation != generation_.load(std::memory_order_relaxed) ||
          pending->view_version != view_version) {
        // The in-flight build predates a Clear() or describes a different
        // snapshot than this caller's. Don't join it — take over the slot
        // and build fresh (the displaced builder only erases its own
        // registration and never publishes past an epoch).
        break;
      }
      coalesced_builds_.Inc();
      shard.cv.wait(lock, [&] { return pending->done; });
      if (!pending->failed) {
        if (was_hit != nullptr) *was_hit = true;
        return pending->index;
      }
      // The build this thread piggybacked on threw; retry from scratch.
    }
    index_misses_.Inc();
    if (opts_.admission_min_uses > 1) {
      // Admission policy: keys below the use threshold build for the caller
      // without registering or publishing — a one-shot key costs neither
      // budget nor an eviction of a hotter entry.
      if (shard.seen.size() >= Shard::kSeenCap) shard.seen.clear();
      const uint32_t uses = ++shard.seen[key];
      if (uses < opts_.admission_min_uses) {
        admission_bypasses_.Inc();
        lock.unlock();
        if (was_hit != nullptr) *was_hit = false;
        return std::make_shared<const LightweightIndex>(build());
      }
    }
    inflight = std::make_shared<Shard::Inflight>();
    inflight->generation = generation_.load(std::memory_order_relaxed);
    inflight->view_version = view_version;
    shard.building[key] = inflight;  // insert, or displace a stale in-flight
  }
  if (was_hit != nullptr) *was_hit = false;

  // Erase only this thread's own registration: a fresh builder may have
  // displaced it after a Clear().
  const auto erase_own_registration = [&shard, &key, &inflight] {
    const auto it = shard.building.find(key);
    if (it != shard.building.end() && it->second == inflight) {
      shard.building.erase(it);
    }
  };

  std::shared_ptr<const LightweightIndex> index;
  try {
    fault::Hit(fault::Site::kCacheBuild);
    index = std::make_shared<const LightweightIndex>(build());
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      erase_own_registration();
      inflight->failed = true;
      inflight->done = true;
    }
    shard.cv.notify_all();
    throw;
  }

  if (index->build_stats().interrupted) {
    // The builder's own deadline/cancel tripped mid-build. The empty index
    // is correct *for this caller* (its query is over either way), but the
    // coalesced waiters may have laxer deadlines — fail the latch exactly
    // like a throwing build so one of them retries as the next builder, and
    // never publish the stub.
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      erase_own_registration();
      inflight->failed = true;
      inflight->done = true;
    }
    shard.cv.notify_all();
    return index;
  }

  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    erase_own_registration();
    inflight->index = index;
    inflight->done = true;
    // Skip publication when Clear() ran mid-build (the index describes a
    // graph that may have been swapped away), when an epoch advanced past
    // the builder's snapshot (BeginEpoch stores the new version before
    // sweeping, so a stale build can never slip in behind the sweep), or
    // when a newer entry already occupies the slot — waiters still get the
    // index.
    if (inflight->generation == generation_.load(std::memory_order_relaxed) &&
        view_version == version_.load(std::memory_order_acquire) &&
        shard.map.find(key) == shard.map.end()) {
      const size_t bytes = index->MemoryBytes() + kEntryOverheadBytes;
      shard.lru.push_front({key, index, bytes, view_version});
      shard.map.emplace(key, shard.lru.begin());
      shard.bytes += bytes;
      index_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      // Evict from the cold end; the just-inserted front entry is always
      // retained, so one oversized index degrades to a cache of one
      // instead of thrashing.
      while (shard.bytes > index_budget_per_shard_ && shard.lru.size() > 1) {
        const Shard::IndexEntry& victim = shard.lru.back();
        shard.bytes -= victim.bytes;
        index_bytes_.fetch_sub(victim.bytes, std::memory_order_relaxed);
        shard.map.erase(victim.key);
        shard.lru.pop_back();
        index_evictions_.Inc();
      }
    }
  }
  shard.cv.notify_all();
  return index;
}

std::shared_ptr<const LightweightIndex> IndexCache::PeekIndex(
    const CacheKey& key, uint64_t view_version) const {
  const Shard& shard = ShardFor(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(key);
  return it != shard.map.end() && it->second->first_version <= view_version
             ? it->second->index
             : nullptr;
}

bool IndexCache::ResultExpired(
    const std::chrono::steady_clock::time_point& inserted_at) const {
  if (opts_.result_ttl_ms <= 0.0) return false;
  const auto age = std::chrono::steady_clock::now() - inserted_at;
  return std::chrono::duration<double, std::milli>(age).count() >
         opts_.result_ttl_ms;
}

std::shared_ptr<const CachedResultSet> IndexCache::GetResult(
    const CacheKey& key, uint64_t view_version) {
  Shard& shard = ShardFor(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.result_map.find(key);
  if (it == shard.result_map.end() ||
      it->second->first_version > view_version) {
    result_misses_.Inc();
    return nullptr;
  }
  if (ResultExpired(it->second->inserted_at)) {
    shard.result_bytes -= it->second->bytes;
    result_bytes_.fetch_sub(it->second->bytes, std::memory_order_relaxed);
    shard.result_lru.erase(it->second);
    shard.result_map.erase(it);
    result_ttl_evictions_.Inc();
    result_misses_.Inc();
    return nullptr;
  }
  shard.result_lru.splice(shard.result_lru.begin(), shard.result_lru,
                          it->second);
  result_hits_.Inc();
  return it->second->result;
}

bool IndexCache::HasResult(const CacheKey& key, uint64_t view_version) const {
  const Shard& shard = ShardFor(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.result_map.find(key);
  return it != shard.result_map.end() &&
         it->second->first_version <= view_version &&
         !ResultExpired(it->second->inserted_at);
}

bool IndexCache::PutResult(const CacheKey& key,
                           std::shared_ptr<const CachedResultSet> result,
                           uint64_t view_version) {
  const size_t bytes = result->MemoryBytes() + kEntryOverheadBytes;
  if (opts_.max_result_bytes == 0 || bytes > opts_.max_result_entry_bytes) {
    result_rejects_.Inc();
    return false;
  }
  Shard& shard = ShardFor(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (view_version != version_.load(std::memory_order_acquire)) {
    // The run enumerated a snapshot an epoch has since retired; its result
    // set may already be stale for the current version.
    result_rejects_.Inc();
    return false;
  }
  if (shard.result_map.find(key) != shard.result_map.end()) {
    return true;  // a concurrent worker already recorded this key
  }
  shard.result_lru.push_front({key, std::move(result), bytes, view_version,
                               std::chrono::steady_clock::now()});
  shard.result_map.emplace(key, shard.result_lru.begin());
  shard.result_bytes += bytes;
  result_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  result_inserts_.Inc();
  while (shard.result_bytes > result_budget_per_shard_ &&
         shard.result_lru.size() > 1) {
    const Shard::ResultEntry& victim = shard.result_lru.back();
    shard.result_bytes -= victim.bytes;
    result_bytes_.fetch_sub(victim.bytes, std::memory_order_relaxed);
    shard.result_map.erase(victim.key);
    shard.result_lru.pop_back();
    result_evictions_.Inc();
  }
  // The per-entry cap <= shard budget is not enforced by construction; an
  // entry above the shard budget stays as the single retained entry.
  return true;
}

void IndexCache::Clear(uint64_t new_version) {
  // Bump first so any in-flight build publishes nowhere; the version reset
  // realigns publication checks with the caller's next snapshot (without
  // it, a RebindGraph after any BeginEpoch would leave version_ ahead of
  // every future view and silently reject all publications).
  generation_.fetch_add(1, std::memory_order_relaxed);
  version_.store(new_version, std::memory_order_release);
  for (uint32_t s = 0; s <= shard_mask_; ++s) {
    Shard& shard = shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    index_bytes_.fetch_sub(shard.bytes, std::memory_order_relaxed);
    result_bytes_.fetch_sub(shard.result_bytes, std::memory_order_relaxed);
    shard.map.clear();
    shard.lru.clear();
    shard.bytes = 0;
    shard.result_map.clear();
    shard.result_lru.clear();
    shard.result_bytes = 0;
    // A full clear accompanies a graph swap: admission history describes
    // keys of the retired topology.
    shard.seen.clear();
  }
}

size_t IndexCache::BeginEpoch(
    const uint64_t new_version,
    const std::function<bool(VertexId, VertexId, uint32_t)>& affects) {
  // Store the version before sweeping: from this point no build or result
  // of an older snapshot can publish (GetOrBuild/PutResult check the
  // version under the shard lock), so an entry that survives the sweep is
  // provably unaffected by this epoch and valid for the new version.
  version_.store(new_version, std::memory_order_release);
  size_t evicted = 0;
  for (uint32_t s = 0; s <= shard_mask_; ++s) {
    Shard& shard = shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (affects(it->key.source, it->key.target, it->key.hops)) {
        shard.bytes -= it->bytes;
        index_bytes_.fetch_sub(it->bytes, std::memory_order_relaxed);
        shard.map.erase(it->key);
        it = shard.lru.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
    for (auto it = shard.result_lru.begin(); it != shard.result_lru.end();) {
      if (affects(it->key.source, it->key.target, it->key.hops)) {
        shard.result_bytes -= it->bytes;
        result_bytes_.fetch_sub(it->bytes, std::memory_order_relaxed);
        shard.result_map.erase(it->key);
        it = shard.result_lru.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
  }
  invalidation_evictions_.Inc(evicted);
  return evicted;
}

IndexCacheStats IndexCache::Stats() const {
  IndexCacheStats s;
  s.index_hits = index_hits_.Value();
  s.index_misses = index_misses_.Value();
  s.index_evictions = index_evictions_.Value();
  s.coalesced_builds = coalesced_builds_.Value();
  s.result_hits = result_hits_.Value();
  s.result_misses = result_misses_.Value();
  s.result_evictions = result_evictions_.Value();
  s.result_inserts = result_inserts_.Value();
  s.result_rejects = result_rejects_.Value();
  s.admission_bypasses = admission_bypasses_.Value();
  s.invalidation_evictions =
      invalidation_evictions_.Value();
  s.result_ttl_evictions =
      result_ttl_evictions_.Value();
  s.index_bytes = index_bytes_.load(std::memory_order_relaxed);
  s.result_bytes = result_bytes_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Recording and replay
// ---------------------------------------------------------------------------

RecordingSink::RecordingSink(PathSink& inner, size_t max_bytes)
    : inner_(inner),
      max_bytes_(max_bytes),
      set_(std::make_shared<CachedResultSet>()) {
  set_->offsets.push_back(0);
}

bool RecordingSink::OnPath(std::span<const VertexId> path) {
  if (recording_) {
    std::vector<VertexId>& v = set_->vertices;
    v.insert(v.end(), path.begin(), path.end());
    set_->offsets.push_back(static_cast<uint32_t>(v.size()));
    if (set_->MemoryBytes() > max_bytes_) {
      recording_ = false;
      set_.reset();  // free the buffer immediately, keep forwarding
    }
  }
  return inner_.OnPath(path);
}

PathSink::BlockResult RecordingSink::OnBlock(const PathBlockView& block) {
  if (recording_) {
    std::vector<VertexId>& v = set_->vertices;
    ForEachPathInBlock(block, [&](std::span<const VertexId> path) {
      v.insert(v.end(), path.begin(), path.end());
      set_->offsets.push_back(static_cast<uint32_t>(v.size()));
      return true;
    });
    if (set_->MemoryBytes() > max_bytes_) {
      recording_ = false;
      set_.reset();
    }
  }
  return inner_.OnBlock(block);
}

std::shared_ptr<const CachedResultSet> RecordingSink::Finish(
    const QueryStats& stats) {
  PATHENUM_CHECK(recording_ && set_ != nullptr);
  set_->vertices.shrink_to_fit();
  set_->offsets.shrink_to_fit();
  set_->method = stats.method;
  set_->index_vertices = stats.index_vertices;
  set_->index_edges = stats.index_edges;
  set_->index_bytes = stats.index_bytes;
  recording_ = false;
  return std::shared_ptr<const CachedResultSet>(std::move(set_));
}

QueryStats ReplayCachedResult(const CachedResultSet& result, PathSink& sink,
                              const EnumOptions& opts) {
  QueryStats stats;
  Timer total;
  stats.method = result.method;
  stats.index_vertices = result.index_vertices;
  stats.index_edges = result.index_edges;
  stats.index_bytes = result.index_bytes;
  stats.result_cache_hit = true;
  EnumCounters& c = stats.counters;
  const size_t n = result.num_paths();
  for (size_t i = 0; i < n; ++i) {
    if (c.num_results >= opts.result_limit) {
      c.hit_result_limit = true;
      break;
    }
    ++c.num_results;
    if (c.num_results == opts.response_target) {
      c.response_ms = total.ElapsedMs();
    }
    if (!sink.OnPath(result.Path(i))) {
      c.stopped_by_sink = true;
      break;
    }
  }
  stats.enumerate_ms = total.ElapsedMs();
  stats.total_ms = stats.enumerate_ms;
  stats.response_ms =
      c.response_ms >= 0.0 ? c.response_ms : stats.total_ms;
  return stats;
}

}  // namespace pathenum
