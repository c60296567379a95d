#include "trace/reuse.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace opm::trace {

namespace {
constexpr std::uint64_t kWordsPerBlock = 8;  // 512 timestamps / 64 bits
constexpr std::uint64_t kMinStamps = 4096;
constexpr std::uint32_t kMinTableShift = 64 - 10;  // 1024 slots
}  // namespace

ReuseDistanceAnalyzer::ReuseDistanceAnalyzer(std::uint32_t line_size) : line_size_(line_size) {
  if (line_size == 0 || !std::has_single_bit(line_size))
    throw std::invalid_argument("line size must be a power of two");
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_size));
  table_shift_ = kMinTableShift;
  table_.assign(std::size_t{1} << (64 - table_shift_), Slot{kEmpty, 0});
  resize_stamps(kMinStamps);
}

void ReuseDistanceAnalyzer::touch(std::uint64_t addr, std::uint32_t size) {
  if (size == 0) return;
  const std::uint64_t first = addr >> line_shift_;
  const std::uint64_t last = (addr + size - 1) >> line_shift_;
  for (std::uint64_t line = first; line <= last; ++line) touch_line(line);
}

void ReuseDistanceAnalyzer::touch_line(std::uint64_t line) {
  ++accesses_;
  if (now_ == markers_.size() * 64) compact();
  bool inserted = false;
  Slot& slot = find_or_insert(line, inserted);
  if (inserted) {
    ++cold_;
  } else {
    // Live markers are the most-recent access of each distinct line, so
    // the count of markers strictly after the previous access is the
    // stack distance.
    const std::uint64_t distance = markers_after(slot.stamp);
    if (distance >= histogram_.size()) histogram_.resize(distance + 1, 0);
    ++histogram_[distance];
    clear_marker(slot.stamp);  // the marker moves from prev to now
  }
  slot.stamp = now_;
  set_marker(now_);
  ++now_;
}

ReuseDistanceAnalyzer::Slot& ReuseDistanceAnalyzer::find_or_insert(std::uint64_t line,
                                                                   bool& inserted) {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ull) >> table_shift_);
  while (true) {
    Slot& s = table_[i];
    if (s.line == line) return s;
    if (s.line == kEmpty) break;
    i = (i + 1) & mask;
  }
  // Keep the load at most 1/2: grow first, then insert into the new table.
  if ((cold_ + 1) * 2 > table_.size()) {
    grow_table();
    return find_or_insert(line, inserted);
  }
  inserted = true;
  table_[i].line = line;
  return table_[i];
}

void ReuseDistanceAnalyzer::grow_table() {
  std::vector<Slot> old = std::move(table_);
  --table_shift_;
  table_.assign(old.size() * 2, Slot{kEmpty, 0});
  const std::size_t mask = table_.size() - 1;
  for (const Slot& s : old) {
    if (s.line == kEmpty) continue;
    std::size_t i = static_cast<std::size_t>((s.line * 0x9e3779b97f4a7c15ull) >> table_shift_);
    while (table_[i].line != kEmpty) i = (i + 1) & mask;
    table_[i] = s;
  }
}

std::uint64_t ReuseDistanceAnalyzer::markers_after(std::uint64_t stamp) const {
  // Count on whichever side of the marker spans fewer blocks: after it
  // directly, or as live - (markers at or before it).
  const std::uint64_t word = stamp >> 6;
  const std::uint64_t block = stamp >> kBlockShift;
  const std::uint64_t last_block = (now_ - 1) >> kBlockShift;
  const std::uint64_t first_in_block = block * kWordsPerBlock;
  if (last_block - block <= block) {
    std::uint64_t n = static_cast<std::uint64_t>(
        std::popcount((markers_[word] >> (stamp & 63)) >> 1));
    for (std::uint64_t w = word + 1; w < first_in_block + kWordsPerBlock; ++w)
      n += static_cast<std::uint64_t>(std::popcount(markers_[w]));
    for (std::uint64_t b = block + 1; b <= last_block; ++b) n += block_live_[b];
    return n;
  }
  std::uint64_t upto = static_cast<std::uint64_t>(
      std::popcount((markers_[word] << (63 - (stamp & 63)))));
  for (std::uint64_t w = first_in_block; w < word; ++w)
    upto += static_cast<std::uint64_t>(std::popcount(markers_[w]));
  for (std::uint64_t b = 0; b < block; ++b) upto += block_live_[b];
  return cold_ - upto;
}

void ReuseDistanceAnalyzer::set_marker(std::uint64_t stamp) {
  markers_[stamp >> 6] |= 1ull << (stamp & 63);
  ++block_live_[stamp >> kBlockShift];
}

void ReuseDistanceAnalyzer::clear_marker(std::uint64_t stamp) {
  markers_[stamp >> 6] &= ~(1ull << (stamp & 63));
  --block_live_[stamp >> kBlockShift];
}

void ReuseDistanceAnalyzer::compact() {
  // Rank of every live stamp = live markers before it; the order of the
  // markers, which is all a distance reads, is unchanged.
  word_rank_.resize(markers_.size());
  std::uint64_t running = 0;
  for (std::size_t w = 0; w < markers_.size(); ++w) {
    word_rank_[w] = running;
    running += static_cast<std::uint64_t>(std::popcount(markers_[w]));
  }
  for (Slot& s : table_) {
    if (s.line == kEmpty) continue;
    const std::uint64_t below = markers_[s.stamp >> 6] & ((1ull << (s.stamp & 63)) - 1);
    s.stamp = word_rank_[s.stamp >> 6] + static_cast<std::uint64_t>(std::popcount(below));
  }
  // Four stamps per live marker: a compaction (linear in the table) then
  // pays for itself over the 3 * live accesses until the next one, while
  // the bitmap stays at half a byte per distinct line.
  resize_stamps(std::max<std::uint64_t>(kMinStamps, 4 * cold_));
  for (std::uint64_t t = 0; t < cold_; ++t) set_marker(t);
  now_ = cold_;
}

void ReuseDistanceAnalyzer::resize_stamps(std::uint64_t capacity) {
  const std::uint64_t blocks = (capacity + (1u << kBlockShift) - 1) >> kBlockShift;
  markers_.assign(blocks * kWordsPerBlock, 0);
  block_live_.assign(blocks, 0);
}

std::uint64_t ReuseDistanceAnalyzer::miss_lines(std::uint64_t capacity_lines) const {
  // An access with stack distance d hits a fully associative LRU cache of
  // capacity_lines lines iff d < capacity_lines (d intervening distinct
  // lines plus the reused line itself still fit). Cold misses always miss.
  std::uint64_t misses = cold_;
  for (std::uint64_t d = capacity_lines; d < histogram_.size(); ++d) misses += histogram_[d];
  return misses;
}

std::uint64_t ReuseDistanceAnalyzer::miss_bytes(std::uint64_t capacity_bytes) const {
  return miss_lines(capacity_bytes / line_size_) * line_size_;
}

double ReuseDistanceAnalyzer::hit_rate(std::uint64_t capacity_bytes) const {
  if (accesses_ == 0) return 0.0;
  const std::uint64_t misses = miss_lines(capacity_bytes / line_size_);
  return 1.0 - static_cast<double>(misses) / static_cast<double>(accesses_);
}

std::map<std::uint64_t, std::uint64_t> ReuseDistanceAnalyzer::histogram() const {
  std::map<std::uint64_t, std::uint64_t> out;
  for (std::uint64_t d = 0; d < histogram_.size(); ++d)
    if (histogram_[d] != 0) out.emplace_hint(out.end(), d, histogram_[d]);
  return out;
}

}  // namespace opm::trace
