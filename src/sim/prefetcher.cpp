#include "sim/prefetcher.hpp"

#include <algorithm>
#include <bit>

namespace opm::sim {

StridePrefetcher::StridePrefetcher(std::size_t streams, std::size_t depth,
                                   std::uint32_t line_size)
    : streams_(streams),
      depth_(depth),
      line_size_(line_size),
      last_line_((streams + 3) & ~std::size_t{3}),
      stride_(last_line_.size(), simd::kFreeStride),
      last_use_(last_line_.size()),
      newer_(streams, kNone),
      older_(streams, kNone) {
  line_pow2_ = line_size_ != 0 && std::has_single_bit(line_size_);
  if (line_pow2_) line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_size_));
}

std::size_t StridePrefetcher::observe_into(std::uint64_t line_addr, std::uint64_t* out) {
  ++clock_;
  if (streams_ == 0) return 0;
  const std::int64_t line = static_cast<std::int64_t>(
      line_pow2_ ? line_addr >> line_shift_ : line_addr / line_size_);

  // Look for a stream this access continues: either it matches the
  // established stride, or it is within +/- 2 lines of a tracked head
  // (stride training). One whole-table compare (simd::match_stream).
  const simd::StreamMatch m = simd::match_stream(table(), line);
  const std::uint32_t s = m.slot;
  const bool was_free = stride_[s] == simd::kFreeStride;
  if (m.matched && stride_[s] != 0) {
    // Established stream continues: prefetch depth lines ahead.
    last_line_[s] = line;
    last_use_[s] = clock_;
    touch(s, false);
    ++stream_hits_;
    std::size_t n = 0;
    for (std::size_t d = 1; d <= depth_; ++d) {
      const std::int64_t target = line + stride_[s] * static_cast<std::int64_t>(d);
      if (target < 0) break;
      out[n++] = line_pow2_ ? static_cast<std::uint64_t>(target) << line_shift_
                            : static_cast<std::uint64_t>(target) * line_size_;
    }
    issued_ += n;
    return n;
  }
  // A nascent stream's second access locks the stride in. No match:
  // allocate, preferring a free slot over replacing the least recently
  // useful stream.
  stride_[s] = m.matched ? line - last_line_[s] : 0;
  last_line_[s] = line;
  last_use_[s] = clock_;
  touch(s, was_free);
  return 0;
}

void StridePrefetcher::touch(std::uint32_t s, bool was_free) {
  if (was_free) {
    ++tracked_;
  } else {
    if (s == newest_) return;
    // Unlink s; not being the newest, it has a newer neighbour.
    older_[newer_[s]] = older_[s];
    if (older_[s] == kNone)
      oldest_ = newer_[s];
    else
      newer_[older_[s]] = newer_[s];
  }
  // Link s in as the newest.
  older_[s] = newest_;
  newer_[s] = kNone;
  if (newest_ != kNone) newer_[newest_] = s;
  newest_ = s;
  if (oldest_ == kNone) oldest_ = s;
}

void StridePrefetcher::reset() {
  std::fill(last_line_.begin(), last_line_.end(), 0);
  std::fill(stride_.begin(), stride_.end(), simd::kFreeStride);
  std::fill(last_use_.begin(), last_use_.end(), 0);
  std::fill(newer_.begin(), newer_.end(), kNone);
  std::fill(older_.begin(), older_.end(), kNone);
  newest_ = oldest_ = kNone;
  tracked_ = 0;
  clock_ = issued_ = stream_hits_ = 0;
}

}  // namespace opm::sim
