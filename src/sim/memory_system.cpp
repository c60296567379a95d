#include "sim/memory_system.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <type_traits>

#include "util/metrics.hpp"

namespace opm::sim {

std::uint64_t TrafficReport::device_bytes() const {
  std::uint64_t total = 0;
  for (const auto& d : devices) total += d.bytes_served;
  return total;
}

bool TrafficReport::has(const std::string& name) const {
  for (const auto& t : tiers)
    if (t.name == name) return true;
  for (const auto& d : devices)
    if (d.name == name) return true;
  return false;
}

std::uint64_t TrafficReport::bytes_from(const std::string& name) const {
  for (const auto& t : tiers)
    if (t.name == name) return t.bytes_served;
  for (const auto& d : devices)
    if (d.name == name) return d.bytes_served;
  throw std::out_of_range("TrafficReport::bytes_from: no tier or device named '" + name + "'");
}

namespace {
/// Upper bound on the set slices of one exact replay: enough to keep a
/// few workers busy, few enough that each slice's buffers stay small.
constexpr std::uint32_t kMaxSetSlices = 16;
}  // namespace

std::uint32_t set_slices(const Platform& platform) {
  if (platform.tiers.empty()) return 1;
  std::uint32_t k = kMaxSetSlices;
  for (const auto& tier : platform.tiers) {
    const CacheGeometry& g = tier.geometry;
    if (g.policy == ReplacementPolicy::kRandom) return 1;
    if (g.line_size < 8 || !std::has_single_bit(g.line_size) || g.associativity == 0) return 1;
    const std::uint64_t granule = static_cast<std::uint64_t>(g.line_size) * g.associativity;
    const std::uint64_t sets = g.capacity / granule;
    if (sets == 0 || g.capacity % granule != 0) return 1;
    while (sets % k != 0) k >>= 1;
  }
  return k;
}

// ------------------------------------------------------------ hierarchy --

template <class CacheT>
HierarchyT<CacheT>::HierarchyT(const Platform& platform, std::uint32_t slices,
                               std::uint32_t residue)
    : address_map_(platform),
      slice_shift_(static_cast<std::uint32_t>(std::countr_zero(slices))),
      residue_(residue) {
  caches_.reserve(platform.tiers.size());
  kinds_.reserve(platform.tiers.size());
  for (const auto& tier : platform.tiers) {
    CacheGeometry g = tier.geometry;
    g.capacity /= slices;
    if constexpr (std::is_constructible_v<CacheT, CacheGeometry, std::uint32_t>)
      caches_.emplace_back(g, slices);
    else
      caches_.emplace_back(g);
    kinds_.push_back(tier.kind);
  }
  if (!platform.tiers.empty())
    line_shift_ =
        static_cast<std::uint32_t>(std::countr_zero(platform.tiers[0].geometry.line_size));
  tier_hits_.assign(caches_.size(), 0);
  tier_writebacks_.assign(caches_.size(), 0);
  device_lines_.assign(platform.devices.size(), 0);
  device_writeback_lines_.assign(platform.devices.size(), 0);
  device_prefetch_lines_.assign(platform.devices.size(), 0);
  fast_path_ok_ = !kinds_.empty() && kinds_[0] == TierKind::kStandard;
}

template <class CacheT>
void HierarchyT<CacheT>::miss_walk(std::uint64_t line_addr, bool is_write)
  requires FastPathCache<CacheT>
{
  const CacheResult r = caches_[0].miss_after_probe(line_addr, is_write);
  if (r.evicted) evict_from(0, r.evicted_addr, r.evicted_dirty);
  walk_from(1, line_addr, is_write);
}

template <class CacheT>
void HierarchyT<CacheT>::walk_from(std::size_t start, std::uint64_t line_addr,
                                   bool is_write) {
  for (std::size_t i = start; i < caches_.size(); ++i) {
    auto& cache = caches_[i];

    if (kinds_[i] == TierKind::kVictim) {
      // Victim tier (eDRAM L4): demand accesses probe it but never install
      // into it — fills come exclusively from upper-tier evictions. A hit
      // promotes the line: the victim copy is invalidated and the copies
      // installed in the upper tiers during this walk take over (the
      // non-inclusive semantics of Broadwell's L4, paper section 2.1).
      bool was_dirty = false;
      if (cache.invalidate(cache.align(line_addr), was_dirty)) {
        ++tier_hits_[i];
        return;
      }
      continue;  // victim miss: fall through to the next tier
    }

    const CacheResult result = cache.access(line_addr, is_write);
    if (result.evicted) evict_from(i, result.evicted_addr, result.evicted_dirty);
    if (result.hit) {
      ++tier_hits_[i];
      return;
    }
  }
  ++device_lines_[device_of(line_addr)];
}

template <class CacheT>
void HierarchyT<CacheT>::evict_from(std::size_t from, std::uint64_t line_addr, bool dirty) {
  ++tier_writebacks_[from];
  std::size_t i = from;
  bool carry_dirty = dirty;
  std::uint64_t carry_addr = line_addr;

  while (true) {
    const std::size_t below = i + 1;
    if (below >= caches_.size()) {
      // No tier below: dirty lines land on the backing device.
      if (carry_dirty) ++device_writeback_lines_[device_of(carry_addr)];
      return;
    }

    const TierKind kind = kinds_[below];
    if (kind == TierKind::kVictim) {
      // Victim fill path: the victim absorbs *all* evictions from the tier
      // above it, clean or dirty. Its own displaced line continues down.
      const CacheResult r = caches_[below].install(carry_addr, carry_dirty);
      if (!r.evicted) return;
      carry_addr = r.evicted_addr;
      carry_dirty = r.evicted_dirty;
      i = below;
      continue;
    }

    if (!carry_dirty) return;  // clean evictions vanish below a non-victim tier

    if (kind == TierKind::kMemorySide) {
      // A dirty line written back through a memory-side cache (MCDRAM in
      // cache mode) is absorbed there; a displaced dirty line continues.
      const CacheResult r = caches_[below].install(carry_addr, true);
      if (!r.evicted || !r.evicted_dirty) return;
      carry_addr = r.evicted_addr;
      carry_dirty = true;
      i = below;
      continue;
    }

    // Standard tier below: the line is usually already present (the walk
    // installs top-down); install() then just marks it dirty.
    const CacheResult r = caches_[below].install(carry_addr, true);
    if (!r.evicted || !r.evicted_dirty) return;
    carry_addr = r.evicted_addr;
    carry_dirty = true;
    i = below;
  }
}

template <class CacheT>
void HierarchyT<CacheT>::prefetch_line(std::uint64_t line_addr) {
  // Already resident anywhere: nothing to fetch.
  for (const auto& cache : caches_)
    if (cache.contains(cache.align(line_addr))) return;

  // Fill every standard tier (prefetches train into the cache stack);
  // displaced lines follow the normal eviction path. The sweep above
  // proved the line absent everywhere, and eviction chains only push
  // OTHER lines down, so the flat core can skip each install's hit scan.
  for (std::size_t i = 0; i < caches_.size(); ++i) {
    if (kinds_[i] != TierKind::kStandard) continue;
    CacheResult r;
    if constexpr (FastPathCache<CacheT>)
      r = caches_[i].install_absent(line_addr, false);
    else
      r = caches_[i].install(line_addr, false);
    if (r.evicted) evict_from(i, r.evicted_addr, r.evicted_dirty);
  }
  ++prefetch_fills_;
  ++device_prefetch_lines_[device_of(line_addr)];
}

template <class CacheT>
void HierarchyT<CacheT>::store_nt_line(std::uint64_t line_addr) {
  // Coherence: drop any cached copy (its data is now stale).
  for (auto& cache : caches_) {
    bool was_dirty = false;
    cache.invalidate(cache.align(line_addr), was_dirty);
  }
  ++device_writeback_lines_[device_of(line_addr)];
}

template <class CacheT>
void HierarchyT<CacheT>::replay(const std::uint64_t* ops, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t op = ops[k];
    const std::uint64_t line_addr = (op >> 2) << line_shift_;
    const std::uint64_t kind = op & 3;
    // Loads and stores interleave freely: one predictable branch for both
    // (their kinds differ only in the write bit) rather than a jump table.
    if (kind <= kStoreOp)
      demand(line_addr, kind == kStoreOp);
    else if (kind == kPrefetchOp)
      prefetch_line(line_addr);
    else
      store_nt_line(line_addr);
  }
}

template <class CacheT>
void HierarchyT<CacheT>::reset() {
  for (auto& c : caches_) c.reset();
  std::fill(tier_hits_.begin(), tier_hits_.end(), 0);
  std::fill(tier_writebacks_.begin(), tier_writebacks_.end(), 0);
  std::fill(device_lines_.begin(), device_lines_.end(), 0);
  std::fill(device_writeback_lines_.begin(), device_writeback_lines_.end(), 0);
  std::fill(device_prefetch_lines_.begin(), device_prefetch_lines_.end(), 0);
  prefetch_fills_ = 0;
}

// --------------------------------------------------------------- system --

template <class CacheT>
MemorySystemT<CacheT>::MemorySystemT(const Platform& platform) : platform_(platform) {
  for (const auto& tier : platform_.tiers) {
    if (tier.geometry.line_size != platform_.tiers.front().geometry.line_size)
      throw std::invalid_argument(
          "MemorySystem: all tiers must share one line_size (tier '" + tier.geometry.name +
          "' disagrees with tier '" + platform_.tiers.front().geometry.name +
          "'); the line split mask is hierarchy-wide");
  }
  if (!platform_.tiers.empty()) line_size_ = platform_.tiers.front().geometry.line_size;
  // The reference model always walks sequentially; the flat core slices
  // only when there is a pool to replay the slices on.
  if constexpr (FastPathCache<CacheT>) {
    const std::uint32_t k = set_slices(platform_);
    if (k > 1) pool_ = util::shared_pool();
    if (pool_ != nullptr) slice_count_ = k;
  }
  slices_.reserve(slice_count_);
  for (std::uint32_t s = 0; s < slice_count_; ++s) slices_.emplace_back(platform_, slice_count_, s);
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_size_));
  slice_shift_ = static_cast<std::uint32_t>(std::countr_zero(slice_count_));
  if (slice_count_ > 1) {
    ops_ = std::make_unique<std::uint64_t[]>(2 * slice_count_ * kSliceOps);
    buffers_.resize(slice_count_);
    for (std::size_t s = 0; s < slice_count_; ++s) {
      buffers_[s].filling = ops_.get() + 2 * s * kSliceOps;
      buffers_[s].replaying = buffers_[s].filling + kSliceOps;
    }
    summed_stats_.resize(platform_.tiers.size());
  }
}

template <class CacheT>
MemorySystemT<CacheT>::~MemorySystemT() {
  buffers_.clear();  // waits for replays still running on the pool
  publish_lines();
}

template <class CacheT>
void MemorySystemT<CacheT>::publish_lines() const {
  if (accesses_ == published_lines_) return;
  util::MetricsRegistry::instance().counter("sim.lines_simulated").add(accesses_ - published_lines_);
  published_lines_ = accesses_;
}

template <class CacheT>
void MemorySystemT<CacheT>::enable_prefetcher(std::size_t streams, std::size_t depth) {
  prefetcher_ = std::make_unique<StridePrefetcher>(streams, depth, line_size_);
  prefetch_targets_ = std::make_unique<std::uint64_t[]>(std::max<std::size_t>(depth, 1));
}

template <class CacheT>
void MemorySystemT<CacheT>::store_nt(std::uint64_t addr, std::uint32_t size) {
  if (size == 0) return;
  bytes_ += size;
  const std::uint64_t mask = ~static_cast<std::uint64_t>(line_size_ - 1);
  const std::uint64_t first = addr & mask;
  const std::uint64_t last = (addr + size - 1) & mask;
  for (std::uint64_t line = first; line <= last; line += line_size_) {
    ++accesses_;
    // Write-combining: consecutive NT stores into the same line merge in
    // the WC buffer and reach the device as one line write.
    if (line == nt_wc_line_) continue;
    nt_wc_line_ = line;
    if (slice_count_ > 1)
      enqueue(line, Hierarchy::kNtOp);
    else
      slices_.front().store_nt_line(line);
  }
}

template <class CacheT>
void MemorySystemT<CacheT>::observe_and_prefetch(Hierarchy& h, std::uint64_t line_addr) {
  const std::size_t n = prefetcher_->observe_into(line_addr, prefetch_targets_.get());
  for (std::size_t k = 0; k < n; ++k) h.prefetch_line(prefetch_targets_[k]);
}

template <class CacheT>
void MemorySystemT<CacheT>::observe_and_enqueue(std::uint64_t line_addr) {
  const std::size_t n = prefetcher_->observe_into(line_addr, prefetch_targets_.get());
  for (std::size_t k = 0; k < n; ++k) enqueue(prefetch_targets_[k], Hierarchy::kPrefetchOp);
}

template <class CacheT>
void MemorySystemT<CacheT>::hand_off(std::size_t s) const {
  SliceBuffer& b = buffers_[s];
  if (b.replay != nullptr) {
    b.replay->join();  // the slice's previous buffer is free again
    b.replay.reset();
  }
  std::swap(b.filling, b.replaying);
  Hierarchy* h = &slices_[s];
  const std::uint64_t* ops = b.replaying;
  const std::size_t n = b.count;
  b.count = 0;
  b.replay = pool_->fork(0, 1, 1, [h, ops, n](std::size_t) { h->replay(ops, n); });
}

template <class CacheT>
void MemorySystemT<CacheT>::flush() const {
  for (std::size_t s = 0; s < buffers_.size(); ++s)
    if (buffers_[s].count != 0) hand_off(s);
  for (SliceBuffer& b : buffers_) {
    if (b.replay == nullptr) continue;
    b.replay->join();
    b.replay.reset();
  }
}

template <class CacheT>
std::uint64_t MemorySystemT<CacheT>::prefetch_fills() const {
  flush();
  std::uint64_t total = 0;
  for (const Hierarchy& h : slices_) total += h.prefetch_fills_;
  return total;
}

template <class CacheT>
const CacheStats& MemorySystemT<CacheT>::tier_stats(std::size_t i) const {
  if (slice_count_ <= 1) return slices_.front().caches_[i].stats();
  flush();
  CacheStats sum;
  for (const Hierarchy& h : slices_) {
    const CacheStats& s = h.caches_[i].stats();
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.evictions += s.evictions;
    sum.dirty_evictions += s.dirty_evictions;
  }
  summed_stats_[i] = sum;
  return summed_stats_[i];
}

template <class CacheT>
TrafficReport MemorySystemT<CacheT>::report() const {
  flush();
  publish_lines();
  TrafficReport out;
  // Slice counters sum in slice order (integer sums: the order only makes
  // the reduction's shape fixed, the totals are the sequential walk's).
  for (std::size_t i = 0; i < platform_.tiers.size(); ++i) {
    std::uint64_t hits = 0, writebacks = 0;
    for (const Hierarchy& h : slices_) {
      hits += h.tier_hits_[i];
      writebacks += h.tier_writebacks_[i];
    }
    out.tiers.push_back({.name = platform_.tiers[i].geometry.name,
                         .hits = hits,
                         .bytes_served = hits * line_size_,
                         .writebacks = writebacks});
  }
  for (std::size_t i = 0; i < platform_.devices.size(); ++i) {
    std::uint64_t lines = 0, writebacks = 0, prefetches = 0;
    for (const Hierarchy& h : slices_) {
      lines += h.device_lines_[i];
      writebacks += h.device_writeback_lines_[i];
      prefetches += h.device_prefetch_lines_[i];
    }
    out.devices.push_back({.name = platform_.devices[i].name,
                           .hits = lines,
                           .bytes_served = lines * line_size_,
                           .writebacks = writebacks,
                           .prefetches = prefetches});
  }
  out.total_accesses = accesses_;
  out.total_bytes = bytes_;
  return out;
}

template <class CacheT>
void MemorySystemT<CacheT>::reset() {
  publish_lines();  // the registry total spans resets
  // Ops still buffered would only change state that is cleared below, so
  // they are dropped rather than replayed; replays already running are
  // waited for, since they write the slices.
  for (SliceBuffer& b : buffers_) {
    if (b.replay != nullptr) {
      b.replay->join();
      b.replay.reset();
    }
    b.count = 0;
  }
  for (Hierarchy& h : slices_) h.reset();
  if (prefetcher_) prefetcher_->reset();
  nt_wc_line_ = ~0ull;
  accesses_ = 0;
  bytes_ = 0;
  published_lines_ = 0;
}

template class HierarchyT<FlatCache>;
template class HierarchyT<SetAssociativeCache>;
template class MemorySystemT<FlatCache>;
template class MemorySystemT<SetAssociativeCache>;

}  // namespace opm::sim
