#pragma once

#include <cstdint>
#include <map>
#include <vector>

/// Reuse-distance (LRU stack distance) analysis.
///
/// The stack distance of an access is the number of *distinct* cache lines
/// touched since the previous access to the same line. Under a fully
/// associative LRU cache of capacity C lines, an access hits iff its stack
/// distance is < C — so one pass over a trace yields the miss curve
/// miss_lines(C) for *every* capacity at once. This is how the analytical
/// per-kernel traffic models are cross-validated against real traces.
///
/// Implementation: Bennett–Kruskal marker counting. Every distinct line
/// keeps one live marker at the timestamp of its latest access; an access's
/// stack distance is the number of live markers after its line's previous
/// timestamp. Markers live in a bitmap over timestamps with a live count
/// per 512-timestamp block, so moving a marker is O(1) and a count sums
/// the blocks on the shorter side of the marker. When the timestamp space
/// fills, live markers are renumbered densely and the space resized to
/// four times their number — so memory follows the footprint (distinct
/// lines), never the trace length. The last-use table is a flat
/// open-addressing hash and the histogram is dense (distances are below
/// the footprint).
namespace opm::trace {

class ReuseDistanceAnalyzer {
 public:
  /// `line_size` must be a power of two; accesses are line-granular.
  explicit ReuseDistanceAnalyzer(std::uint32_t line_size = 64);

  /// Recorder interface: reads and writes profile identically.
  void load(std::uint64_t addr, std::uint32_t size) { touch(addr, size); }
  void store(std::uint64_t addr, std::uint32_t size) { touch(addr, size); }

  /// Records one access of `size` bytes at `addr`.
  void touch(std::uint64_t addr, std::uint32_t size);

  /// Total line-granular accesses recorded.
  std::uint64_t accesses() const { return accesses_; }
  /// Accesses to lines never seen before (cold misses).
  std::uint64_t cold_misses() const { return cold_; }
  /// Number of distinct lines touched (the footprint, in lines).
  std::uint64_t distinct_lines() const { return cold_; }

  /// Misses of a fully associative LRU cache with `capacity_lines` lines
  /// (cold misses included).
  std::uint64_t miss_lines(std::uint64_t capacity_lines) const;

  /// Same expressed in bytes: misses of a cache of `capacity_bytes`.
  std::uint64_t miss_bytes(std::uint64_t capacity_bytes) const;

  /// Hit rate at the given capacity in bytes.
  double hit_rate(std::uint64_t capacity_bytes) const;

  /// The distance histogram: distance -> access count, for every distance
  /// that occurred. Distance is in distinct lines; cold misses are
  /// excluded (they miss at any capacity).
  std::map<std::uint64_t, std::uint64_t> histogram() const;

  std::uint32_t line_size() const { return line_size_; }

 private:
  /// One last-use table entry: a line index and its latest timestamp.
  struct Slot {
    std::uint64_t line;
    std::uint64_t stamp;
  };
  static constexpr std::uint64_t kEmpty = ~0ull;  ///< no line index reaches it
  static constexpr std::uint32_t kBlockShift = 9;  ///< 512 timestamps per block

  void touch_line(std::uint64_t line);
  /// The table slot of `line`, inserting it (stamp unset) when absent.
  Slot& find_or_insert(std::uint64_t line, bool& inserted);
  void grow_table();
  /// Live markers at timestamps strictly after `stamp` (itself live).
  std::uint64_t markers_after(std::uint64_t stamp) const;
  void set_marker(std::uint64_t stamp);
  void clear_marker(std::uint64_t stamp);
  /// Renumbers live markers to [0, live) in order and resizes the
  /// timestamp space to four times the live count.
  void compact();
  void resize_stamps(std::uint64_t capacity);

  std::uint32_t line_size_;
  std::uint32_t line_shift_;
  std::uint64_t accesses_ = 0;
  std::uint64_t cold_ = 0;
  std::uint64_t now_ = 0;  ///< next timestamp
  std::vector<std::uint64_t> markers_;      ///< one bit per timestamp
  std::vector<std::uint32_t> block_live_;   ///< live markers per block
  std::vector<Slot> table_;                 ///< power-of-two open addressing
  std::uint32_t table_shift_ = 0;           ///< 64 - log2(table size)
  std::vector<std::uint64_t> histogram_;    ///< dense: distance -> count
  std::vector<std::uint64_t> word_rank_;    ///< compaction scratch: markers before a word
};

}  // namespace opm::trace
