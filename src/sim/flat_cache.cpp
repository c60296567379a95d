#include "sim/flat_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace opm::sim {
namespace {

// Small caches are preallocated whole in the constructor so the hot path
// never branches to the allocator; above this footprint only touched
// set-pages materialize (the 16 GB MCDRAM tier would otherwise cost ~2 GB
// of metadata up front for sets a workload never maps to).
constexpr std::uint64_t kPreallocLimitBytes = 4ull << 20;

}  // namespace

FlatCache::FlatCache(CacheGeometry geometry, std::uint32_t slices) : geometry_(geometry) {
  if (geometry_.line_size == 0 || !std::has_single_bit(geometry_.line_size))
    throw std::invalid_argument("cache line size must be a power of two");
  if (geometry_.associativity == 0) throw std::invalid_argument("associativity must be >= 1");
  if (geometry_.capacity % (static_cast<std::uint64_t>(geometry_.line_size) *
                            geometry_.associativity) != 0)
    throw std::invalid_argument("capacity must be a multiple of line_size * associativity");
  line_mask_ = geometry_.line_size - 1;
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(geometry_.line_size));
  num_sets_ = geometry_.sets();
  if (num_sets_ == 0) throw std::invalid_argument("cache must have at least one set");
  // The packed way word keeps the tag in bits [3, 64); a tag can only
  // reach bit 61 when line_size * sets < 8 bytes, which no real geometry
  // comes near (use the reference SetAssociativeCache if you need one).
  if (static_cast<std::uint64_t>(geometry_.line_size) * num_sets_ < 8)
    throw std::invalid_argument("flat cache requires line_size * sets >= 8");
  sets_pow2_ = std::has_single_bit(num_sets_);
  if (sets_pow2_) {
    sets_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_sets_));
    sets_mask_ = num_sets_ - 1;
  }
  assoc_ = geometry_.associativity;
  const bool stamped_policy = geometry_.policy == ReplacementPolicy::kLru ||
                              geometry_.policy == ReplacementPolicy::kFifo;
  use_stamp_ = stamped_policy && assoc_ > 1;
  stamp_on_hit_ = use_stamp_ && geometry_.policy == ReplacementPolicy::kLru;
  use_mru_ = assoc_ >= 2 && assoc_ <= 256;  // hint byte holds ways 0..255

  const std::uint64_t num_pages = ((num_sets_ - 1) >> kPageShift) + 1;
  pages_.resize(num_pages);

  std::uint64_t footprint = num_sets_ * assoc_ * sizeof(std::uint64_t);
  if (use_stamp_) footprint *= 2;
  if (use_mru_) footprint += num_sets_;
  if (footprint * std::max<std::uint32_t>(slices, 1) <= kPreallocLimitBytes)
    for (std::uint64_t p = 0; p < num_pages; ++p) allocate_page(p);
}

std::uint64_t FlatCache::sets_in_page(std::uint64_t page) const {
  return std::min<std::uint64_t>(kPageMask + 1, num_sets_ - (page << kPageShift));
}

void FlatCache::allocate_page(std::uint64_t page) {
  const std::uint64_t words = sets_in_page(page) * assoc_;
  Page& pg = pages_[page];
  pg.meta = std::make_unique<std::uint64_t[]>(words);  // value-init: all unallocated
  if (use_stamp_) pg.stamp = std::make_unique<std::uint64_t[]>(words);
  if (use_mru_) pg.mru = std::make_unique<std::uint8_t[]>(sets_in_page(page));
}

void FlatCache::reset() {
  for (std::uint64_t p = 0; p < pages_.size(); ++p) {
    Page& page = pages_[p];
    if (page.meta == nullptr) continue;
    const std::uint64_t words = sets_in_page(p) * assoc_;
    std::fill_n(page.meta.get(), words, 0);
    if (page.stamp != nullptr) std::fill_n(page.stamp.get(), words, 0);
    if (page.mru != nullptr) std::fill_n(page.mru.get(), sets_in_page(p), std::uint8_t{0});
  }
  stats_ = {};
  clock_ = 0;
  // rng_state_ is deliberately NOT reset, matching the reference model.
}

std::size_t FlatCache::resident_lines() const {
  std::size_t n = 0;
  for (std::uint64_t p = 0; p < pages_.size(); ++p) {
    const Page& page = pages_[p];
    if (page.meta == nullptr) continue;
    const std::uint64_t words = sets_in_page(p) * assoc_;
    for (std::uint64_t i = 0; i < words; ++i)
      if ((page.meta[i] & kValid) != 0) ++n;
  }
  return n;
}

}  // namespace opm::sim
