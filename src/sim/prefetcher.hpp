#pragma once

#include <cstdint>
#include <vector>

#include "sim/simd_probe.hpp"

/// Hardware stride-prefetcher model for the trace-driven simulator.
///
/// Both evaluated machines prefetch aggressively on sequential streams —
/// it is why Stream and the stencil sweep at full DRAM bandwidth despite
/// per-access latencies. The model mirrors a per-stream next-N-lines
/// prefetcher: it tracks up to `streams` independent access streams; when
/// an address continues a stream's stride (+/- one line), the next
/// `depth` lines are issued as prefetches.
///
/// The MemorySystem consumes the prefetch suggestions by pre-installing
/// lines (counted separately from demand traffic), which converts demand
/// misses on streaming kernels into prefetch hits — and leaves irregular
/// gather streams (SpMV's x vector) untouched, exactly the asymmetry the
/// paper's kernels exhibit.
namespace opm::sim {

class StridePrefetcher {
 public:
  /// `streams`: tracked concurrent streams; `depth`: lines prefetched
  /// ahead on a stream hit; `line_size`: bytes per line.
  StridePrefetcher(std::size_t streams = 16, std::size_t depth = 4,
                   std::uint32_t line_size = 64);

  /// Observes a demand line access; writes the line addresses to prefetch
  /// into `out` (caller-provided, at least depth() slots) and returns how
  /// many were written. This is the hot-path entry: no allocation.
  std::size_t observe_into(std::uint64_t line_addr, std::uint64_t* out);

  /// Upper bound on the targets one observe can issue.
  std::size_t depth() const { return depth_; }
  /// Number of prefetches issued so far.
  std::uint64_t issued() const { return issued_; }
  /// Number of stream detections (an access continuing a known stream).
  std::uint64_t stream_hits() const { return stream_hits_; }

  /// The stream table as the SIMD match reads it (tests compare backends
  /// on live prefetcher state through this).
  simd::StreamTableView table() const {
    return {last_line_.data(),
            stride_.data(),
            last_use_.data(),
            static_cast<std::uint32_t>(streams_),
            static_cast<std::uint32_t>(stride_.size()),
            tracked_,
            oldest_};
  }

  void reset();

 private:
  static constexpr std::uint32_t kNone = ~0u;

  /// Makes stream `s` the most recently used; `was_free` when it was just
  /// allocated into a free slot (not yet on the recency list).
  void touch(std::uint32_t s, bool was_free);

  std::size_t streams_;
  std::size_t depth_;
  std::uint32_t line_size_;
  /// Power-of-two line sizes (every real platform) turn the per-observe
  /// address/line conversions into shifts instead of 64-bit divisions.
  bool line_pow2_ = false;
  std::uint32_t line_shift_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t stream_hits_ = 0;
  /// Stream table, structure of arrays padded to a multiple of 4 lanes
  /// (simd::StreamTableView): line index of the last access, stride in
  /// lines (0 = not yet established, simd::kFreeStride = free slot), and
  /// clock of the last use.
  std::vector<std::int64_t> last_line_;
  std::vector<std::int64_t> stride_;
  std::vector<std::uint64_t> last_use_;
  /// Recency list of the tracked streams, oldest_ to newest_: every
  /// observe touches exactly one stream, so the list order is last_use
  /// order and a full table's victim is oldest_ in O(1).
  std::vector<std::uint32_t> newer_;
  std::vector<std::uint32_t> older_;
  std::uint32_t newest_ = kNone;
  std::uint32_t oldest_ = kNone;
  std::uint32_t tracked_ = 0;
};

}  // namespace opm::sim
