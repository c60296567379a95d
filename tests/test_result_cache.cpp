#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/result_cache.hpp"
#include "core/sweep.hpp"
#include "sim/platform.hpp"
#include "sparse/collection.hpp"
#include "util/fingerprint.hpp"

/// The content-addressed result cache's three contracts, tested directly:
///
/// * determinism — a hit returns the exact bytes a cold compute produced,
///   from either tier, for any worker count;
/// * sensitivity — the 128-bit key covers every input: changing any field
///   of a request, the platform spec, or the suite yields a distinct key;
/// * robustness — a missing, truncated, corrupted, version-skewed,
///   wrongly-typed, or permission-denied record NEVER changes results or
///   crashes; it degrades to recompute and is counted by reason.
namespace opm {
namespace {

namespace fs = std::filesystem;

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_config_ = core::result_cache_config();
    saved_workers_ = core::sweep_workers();
    dir_ = fs::temp_directory_path() /
           ("opm-result-cache-test-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    core::configure_result_cache(
        {.enabled = true, .disk = true, .dir = dir_.string(), .max_entries = 4096});
    core::reset_result_cache_stats();
    core::set_sweep_workers(0);
    core::drain_sweep_stats();
  }

  void TearDown() override {
    core::set_sweep_workers(saved_workers_);
    core::configure_result_cache(saved_config_);
    fs::remove_all(dir_);
  }

  static util::Digest128 key_of(std::uint64_t n) {
    util::Hasher128 h;
    h.add(std::string_view("test.key"));
    h.add(n);
    return h.digest();
  }

  fs::path record_path(const util::Digest128& key) const {
    return dir_ / (key.hex() + ".opmrec");
  }

  /// Overwrites one byte of a record in place.
  static void clobber(const fs::path& path, std::streamoff offset, unsigned char value) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekp(offset);
    f.put(static_cast<char>(value));
  }

  core::CacheConfig saved_config_;
  std::size_t saved_workers_ = 0;
  fs::path dir_;
};

std::vector<double> payload(std::size_t n, double scale) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = scale * static_cast<double>(i + 1);
  return v;
}

// ---------------------------------------------------------------- roundtrip --

TEST_F(ResultCacheTest, RoundTripServesExactBytesFromBothTiers) {
  auto& cache = core::ResultCache::instance();
  const auto key = key_of(1);
  const auto value = payload(300, 0.25);
  core::CacheProbe store_probe;
  EXPECT_TRUE(cache.store(key, value, &store_probe));
  EXPECT_EQ(store_probe.bytes_stored, 300 * sizeof(double));

  core::CacheProbe mem_probe;
  const auto mem = cache.find<double>(key, &mem_probe);
  ASSERT_TRUE(mem.has_value());
  EXPECT_EQ(*mem, value);
  EXPECT_STREQ(mem_probe.source, "memory");

  cache.clear_memory();
  core::CacheProbe disk_probe;
  const auto disk = cache.find<double>(key, &disk_probe);
  ASSERT_TRUE(disk.has_value());
  EXPECT_EQ(*disk, value);  // bit-identical after the disk round trip
  EXPECT_STREQ(disk_probe.source, "disk");
  EXPECT_EQ(disk_probe.bytes_loaded, 300 * sizeof(double));

  // The disk hit promoted the record back into memory.
  core::CacheProbe again;
  EXPECT_TRUE(cache.find<double>(key, &again).has_value());
  EXPECT_STREQ(again.source, "memory");

  const auto stats = core::result_cache_stats();
  EXPECT_EQ(stats.memory_hits, 2u);
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST_F(ResultCacheTest, DisabledCacheNoOps) {
  core::configure_result_cache({.enabled = false});
  auto& cache = core::ResultCache::instance();
  EXPECT_FALSE(cache.store(key_of(2), payload(8, 1.0)));
  core::CacheProbe probe;
  EXPECT_FALSE(cache.find<double>(key_of(2), &probe).has_value());
  EXPECT_STREQ(probe.source, "off");
  EXPECT_EQ(core::result_cache_stats().misses, 0u);  // disabled ≠ miss
}

TEST_F(ResultCacheTest, LruEvictionBoundsTheMemoryTier) {
  // 16 shards x cap 1: at most 16 resident entries. Disk off so evicted
  // entries are really gone.
  core::configure_result_cache(
      {.enabled = true, .disk = false, .dir = dir_.string(), .max_entries = 16});
  auto& cache = core::ResultCache::instance();
  constexpr std::uint64_t kKeys = 64;
  for (std::uint64_t i = 0; i < kKeys; ++i) cache.store(key_of(i), payload(4, double(i)));
  std::size_t resident = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i)
    if (cache.find<double>(key_of(i))) ++resident;
  EXPECT_LE(resident, 16u);
  EXPECT_GT(resident, 0u);
}

// ------------------------------------------------------------ disk pruning --

TEST_F(ResultCacheTest, DiskBudgetEvictsOldestRecordsFirst) {
  core::configure_result_cache(
      {.enabled = true, .disk = true, .dir = dir_.string(), .max_entries = 4096});
  auto& cache = core::ResultCache::instance();
  for (std::uint64_t i = 1; i <= 3; ++i)
    ASSERT_TRUE(cache.store(key_of(i), payload(16, double(i))));
  cache.flush();
  const std::uintmax_t record_bytes = fs::file_size(record_path(key_of(1)));

  // Pin an unambiguous age order: key 1 oldest, key 3 newest.
  const auto now = fs::file_time_type::clock::now();
  for (std::uint64_t i = 1; i <= 3; ++i)
    fs::last_write_time(record_path(key_of(i)), now - std::chrono::hours(4 - i));

  // Budget for three records; the fourth store must evict exactly the
  // oldest (pruning runs inside store once max_disk_bytes > 0).
  core::configure_result_cache({.enabled = true,
                                .disk = true,
                                .dir = dir_.string(),
                                .max_entries = 4096,
                                .max_disk_bytes = 3 * record_bytes + record_bytes / 2});
  core::reset_result_cache_stats();
  ASSERT_TRUE(cache.store(key_of(4), payload(16, 4.0)));
  cache.flush();

  EXPECT_FALSE(fs::exists(record_path(key_of(1))));  // oldest went first
  EXPECT_TRUE(fs::exists(record_path(key_of(2))));
  EXPECT_TRUE(fs::exists(record_path(key_of(3))));
  EXPECT_TRUE(fs::exists(record_path(key_of(4))));
  const auto stats = core::result_cache_stats();
  EXPECT_EQ(stats.evicted_budget, 1u);
  EXPECT_GE(stats.evicted_bytes, record_bytes);
}

TEST_F(ResultCacheTest, DiskHitTouchesMtimeSoHotRecordsSurvivePruning) {
  core::configure_result_cache(
      {.enabled = true, .disk = true, .dir = dir_.string(), .max_entries = 4096});
  auto& cache = core::ResultCache::instance();
  ASSERT_TRUE(cache.store(key_of(1), payload(16, 1.0)));
  ASSERT_TRUE(cache.store(key_of(2), payload(16, 2.0)));
  cache.flush();
  const std::uintmax_t record_bytes = fs::file_size(record_path(key_of(1)));

  // Make key 1 the older record, then hit it from disk: the hit must
  // refresh its mtime, leaving key 2 as the eviction candidate.
  const auto now = fs::file_time_type::clock::now();
  fs::last_write_time(record_path(key_of(1)), now - std::chrono::hours(3));
  fs::last_write_time(record_path(key_of(2)), now - std::chrono::hours(2));
  cache.clear_memory();
  core::CacheProbe probe;
  ASSERT_TRUE(cache.find<double>(key_of(1), &probe).has_value());
  EXPECT_STREQ(probe.source, "disk");

  core::configure_result_cache({.enabled = true,
                                .disk = true,
                                .dir = dir_.string(),
                                .max_entries = 4096,
                                .max_disk_bytes = 2 * record_bytes + record_bytes / 2});
  ASSERT_TRUE(cache.store(key_of(3), payload(16, 3.0)));
  cache.flush();

  EXPECT_TRUE(fs::exists(record_path(key_of(1))));   // hot: mtime was touched
  EXPECT_FALSE(fs::exists(record_path(key_of(2))));  // cold: evicted
  EXPECT_TRUE(fs::exists(record_path(key_of(3))));
}

TEST_F(ResultCacheTest, PruningReapsStaleTmpFilesButSparesFreshOnes) {
  core::configure_result_cache(
      {.enabled = true, .disk = true, .dir = dir_.string(), .max_entries = 4096});
  auto& cache = core::ResultCache::instance();
  ASSERT_TRUE(cache.store(key_of(1), payload(16, 1.0)));
  cache.flush();

  // A crashed writer's scratch file (old) and an in-flight one (fresh).
  const fs::path stale = dir_ / ".tmp-deadbeef-0";
  const fs::path fresh = dir_ / ".tmp-cafef00d-1";
  std::ofstream(stale) << "partial";
  std::ofstream(fresh) << "partial";
  fs::last_write_time(stale,
                      fs::file_time_type::clock::now() - std::chrono::minutes(30));

  core::configure_result_cache({.enabled = true,
                                .disk = true,
                                .dir = dir_.string(),
                                .max_entries = 4096,
                                .max_disk_bytes = 1 << 20});
  core::reset_result_cache_stats();
  ASSERT_TRUE(cache.store(key_of(2), payload(16, 2.0)));
  cache.flush();

  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(fresh));
  EXPECT_EQ(core::result_cache_stats().evicted_orphan, 1u);
}

// ------------------------------------------------------------- write-behind --

/// Reads one .opmrec file and checks it is whole: header + payload bytes
/// on disk, payload length as the header says, checksum holding.
::testing::AssertionResult whole_record(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return ::testing::AssertionFailure() << "cannot open " << path;
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (bytes.size() < 48)
    return ::testing::AssertionFailure() << path << ": " << bytes.size() << " B";
  std::uint64_t payload_len = 0, checksum = 0;
  std::memcpy(&payload_len, bytes.data() + 32, 8);
  std::memcpy(&checksum, bytes.data() + 40, 8);
  if (bytes.size() != 48 + payload_len)
    return ::testing::AssertionFailure()
           << path << ": " << bytes.size() << " B on disk, header says 48 + " << payload_len;
  util::Hasher128 h;
  h.add_bytes(bytes.data() + 48, payload_len);
  if (h.digest().lo != checksum) return ::testing::AssertionFailure() << path << ": bad checksum";
  return ::testing::AssertionSuccess();
}

std::vector<fs::path> records_in(const fs::path& dir) {
  std::vector<fs::path> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec))
    if (it->path().extension() == ".opmrec") out.push_back(it->path());
  return out;
}

TEST_F(ResultCacheTest, FlushLeavesEveryStoredRecordWholeOnDisk) {
  auto& cache = core::ResultCache::instance();
  constexpr std::uint64_t kRecords = 40;
  std::size_t bytes = 0;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const auto value = payload(100 + 37 * i, double(i) + 0.5);
    core::CacheProbe probe;
    ASSERT_TRUE(cache.store(key_of(100 + i), value, &probe));
    EXPECT_EQ(probe.bytes_stored, value.size() * sizeof(double));  // bound for disk
    bytes += value.size() * sizeof(double);
  }
  cache.flush();
  const std::vector<fs::path> records = records_in(dir_);
  EXPECT_EQ(records.size(), kRecords);
  for (const fs::path& path : records) EXPECT_TRUE(whole_record(path));
  const auto stats = core::result_cache_stats();
  EXPECT_EQ(stats.write_behind_queued + stats.write_behind_sync, kRecords);
  EXPECT_GT(stats.write_behind_queued, 0u);
  EXPECT_EQ(stats.bytes_stored, bytes);
  EXPECT_EQ(stats.io_errors, 0u);

  cache.clear_memory();
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    core::CacheProbe probe;
    const auto disk = cache.find<double>(key_of(100 + i), &probe);
    ASSERT_TRUE(disk.has_value()) << i;
    EXPECT_STREQ(probe.source, "disk");
    EXPECT_EQ(*disk, payload(100 + 37 * i, double(i) + 0.5));  // bit-identical
  }
}

TEST_F(ResultCacheTest, ConcurrentReaderOnlyEverSeesWholeRecords) {
  // Records of 512 KiB: the queue holds a handful, so both the writer
  // thread and the storing thread (queue full) publish while the reader
  // polls the directory.
  std::atomic<bool> done{false};
  std::atomic<std::size_t> checked{0}, broken{0}, last_scan{0};
  std::thread reader([&] {  // opm-lint: allow(thread-ownership) — the reader is the fixture
    bool last = false;
    while (!last) {
      last = done.load();
      const std::vector<fs::path> records = records_in(dir_);
      for (const fs::path& path : records) {
        if (whole_record(path)) {
          checked.fetch_add(1);
        } else {
          broken.fetch_add(1);
        }
      }
      last_scan.store(records.size());
    }
  });
  auto& cache = core::ResultCache::instance();
  constexpr std::uint64_t kRecords = 24;
  for (std::uint64_t i = 0; i < kRecords; ++i)  // EXPECT: the reader must be joined
    EXPECT_TRUE(cache.store(key_of(200 + i), payload(64 * 1024, double(i) + 1.0)));
  cache.flush();
  done.store(true);
  reader.join();
  EXPECT_EQ(broken.load(), 0u);
  EXPECT_EQ(last_scan.load(), kRecords);  // the scan after flush() sees them all
  EXPECT_GE(checked.load(), kRecords);
}

TEST_F(ResultCacheTest, PayloadOverTheQueueBoundIsWrittenBeforeStoreReturns) {
  auto& cache = core::ResultCache::instance();
  const auto key = key_of(300);
  const auto value = payload(core::kWriteBehindQueueBytes / sizeof(double) + 1, 3.0);
  const std::size_t bytes = value.size() * sizeof(double);
  ASSERT_GT(bytes, core::kWriteBehindQueueBytes);
  core::CacheProbe probe;
  ASSERT_TRUE(cache.store(key, value, &probe));
  // No flush(): the storing thread wrote this one itself.
  ASSERT_TRUE(fs::exists(record_path(key)));
  EXPECT_EQ(fs::file_size(record_path(key)), 48 + bytes);
  EXPECT_TRUE(whole_record(record_path(key)));
  EXPECT_EQ(probe.bytes_stored, bytes);
  const auto stats = core::result_cache_stats();
  EXPECT_EQ(stats.write_behind_sync, 1u);
  EXPECT_EQ(stats.write_behind_queued, 0u);
  EXPECT_EQ(stats.bytes_stored, bytes);
}

TEST_F(ResultCacheTest, QueuedWriteThatFailsIsCountedAtFlushAndMemoryStillServes) {
  fs::create_directories(dir_);
  const fs::path blocker = dir_ / "blocker";
  std::ofstream(blocker).put('x');
  core::configure_result_cache(
      {.enabled = true, .disk = true, .dir = blocker.string(), .max_entries = 64});
  core::reset_result_cache_stats();

  auto& cache = core::ResultCache::instance();
  const auto key = key_of(301);
  const auto value = payload(32, 9.0);
  ASSERT_TRUE(cache.store(key, value));
  cache.flush();
  const auto stats = core::result_cache_stats();
  EXPECT_EQ(stats.write_behind_queued, 1u);
  EXPECT_EQ(stats.write_behind_sync, 0u);
  EXPECT_EQ(stats.io_errors, 1u);
  EXPECT_EQ(stats.bytes_stored, 0u);  // nothing reached the disk
  core::CacheProbe probe;
  const auto mem = cache.find<double>(key, &probe);
  ASSERT_TRUE(mem.has_value());
  EXPECT_STREQ(probe.source, "memory");
  EXPECT_EQ(*mem, value);
}

TEST_F(ResultCacheTest, PruningReapsStaleScratchFilesInTheScratchDir) {
  // Records are written as .tmp- files under <dir>/.tmp, then renamed into
  // place; a crashed writer's leftovers there are reaped like the old
  // top-level ones, and an in-flight one is spared.
  auto& cache = core::ResultCache::instance();
  ASSERT_TRUE(cache.store(key_of(400), payload(16, 1.0)));
  cache.flush();
  const fs::path scratch = dir_ / ".tmp";
  ASSERT_TRUE(fs::is_directory(scratch));
  EXPECT_TRUE(fs::is_empty(scratch));  // every publish renamed its file away
  const fs::path stale = scratch / ".tmp-deadbeef-7";
  const fs::path fresh = scratch / ".tmp-cafef00d-8";
  std::ofstream(stale) << "partial";
  std::ofstream(fresh) << "partial";
  fs::last_write_time(stale, fs::file_time_type::clock::now() - std::chrono::minutes(30));

  core::configure_result_cache({.enabled = true,
                                .disk = true,
                                .dir = dir_.string(),
                                .max_entries = 4096,
                                .max_disk_bytes = 1 << 20});
  core::reset_result_cache_stats();
  ASSERT_TRUE(cache.store(key_of(401), payload(16, 2.0)));
  cache.flush();
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(fresh));
  EXPECT_EQ(core::result_cache_stats().evicted_orphan, 1u);
}

// -------------------------------------------------------------- sensitivity --

TEST_F(ResultCacheTest, DenseKeyIsSensitiveToEveryField) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOn);
  const core::DenseSweepRequest base{};
  std::vector<core::DenseSweepRequest> variants = {base};
  {
    auto v = base; v.kernel = core::KernelId::kCholesky; variants.push_back(v);
  }
  { auto v = base; v.n_lo = 257.0; variants.push_back(v); }
  { auto v = base; v.n_hi = 16129.0; variants.push_back(v); }
  { auto v = base; v.n_step = 513.0; variants.push_back(v); }
  { auto v = base; v.nb_lo = 129.0; variants.push_back(v); }
  { auto v = base; v.nb_hi = 4097.0; variants.push_back(v); }
  { auto v = base; v.nb_step = 129.0; variants.push_back(v); }

  std::vector<util::Digest128> keys;
  for (const auto& v : variants) keys.push_back(core::sweep_cache_key(p, v));
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t j = i + 1; j < keys.size(); ++j)
      EXPECT_FALSE(keys[i] == keys[j]) << "variants " << i << " and " << j;

  // Same request, different platform spec: distinct key.
  const auto off_key = core::sweep_cache_key(sim::broadwell(sim::EdramMode::kOff), base);
  EXPECT_FALSE(off_key == keys[0]);
  // Identical request built twice: identical key (the cache contract).
  EXPECT_TRUE(core::sweep_cache_key(p, core::DenseSweepRequest{}) == keys[0]);
}

TEST_F(ResultCacheTest, SparseAndFootprintKeysAreSensitive) {
  const sim::Platform p = sim::knl(sim::McdramMode::kFlat);
  const auto suite_a = sparse::SyntheticCollection::test_suite(16, 50000);
  const auto suite_b = sparse::SyntheticCollection::test_suite(17, 50000);

  const core::SparseSweepRequest sp{.kernel = core::KernelId::kSpmv};
  const auto k_base = core::sweep_cache_key(p, sp, suite_a);
  EXPECT_FALSE(core::sweep_cache_key(
                   p, {.kernel = core::KernelId::kSptrans}, suite_a) == k_base);
  EXPECT_FALSE(core::sweep_cache_key(
                   p, {.kernel = core::KernelId::kSpmv, .merge_based = true}, suite_a) ==
               k_base);
  EXPECT_FALSE(core::sweep_cache_key(p, sp, suite_b) == k_base);  // suite matters
  EXPECT_TRUE(core::sweep_cache_key(p, sp, suite_a) == k_base);

  const core::FootprintSweepRequest fp{};
  const auto f_base = core::sweep_cache_key(p, fp);
  { auto v = fp; v.kernel = core::KernelId::kFft; EXPECT_FALSE(core::sweep_cache_key(p, v) == f_base); }
  { auto v = fp; v.fp_lo = 32.0 * 1024.0; EXPECT_FALSE(core::sweep_cache_key(p, v) == f_base); }
  { auto v = fp; v.fp_hi = 1e9; EXPECT_FALSE(core::sweep_cache_key(p, v) == f_base); }
  { auto v = fp; v.points = 65; EXPECT_FALSE(core::sweep_cache_key(p, v) == f_base); }
  // Dense and footprint keys live in distinct domains even if fields align.
  EXPECT_FALSE(core::sweep_cache_key(p, core::DenseSweepRequest{}) == f_base);
}

TEST_F(ResultCacheTest, SerializationIsStableAndCanonical) {
  const core::DenseSweepRequest a{}, b{};
  EXPECT_EQ(core::serialize(a), core::serialize(b));
  auto c = a;
  c.n_step = a.n_step + 1e-9;  // sub-print-precision in %g, exact in %a
  EXPECT_NE(core::serialize(a), core::serialize(c));
  // Hex-float rendering pins exact bit patterns, not rounded decimals.
  EXPECT_NE(core::serialize(a).find("0x"), std::string::npos);
  EXPECT_EQ(core::serialize(core::SparseSweepRequest{}),
            core::serialize(core::SparseSweepRequest{}));
  EXPECT_EQ(core::serialize(core::FootprintSweepRequest{}),
            core::serialize(core::FootprintSweepRequest{}));
}

// ----------------------------------------------------------- fault injection --

TEST_F(ResultCacheTest, TruncatedRecordFallsBackToMiss) {
  auto& cache = core::ResultCache::instance();
  const auto key = key_of(10);
  cache.store(key, payload(64, 2.0));
  cache.clear_memory();
  fs::resize_file(record_path(key), 48 + 13);  // payload cut mid-element

  core::CacheProbe probe;
  EXPECT_FALSE(cache.find<double>(key, &probe).has_value());
  EXPECT_STREQ(probe.source, "corrupt");
  EXPECT_EQ(core::result_cache_stats().corrupt_records, 1u);
}

TEST_F(ResultCacheTest, ShorterThanHeaderFallsBackToMiss) {
  auto& cache = core::ResultCache::instance();
  const auto key = key_of(11);
  cache.store(key, payload(8, 3.0));
  cache.clear_memory();
  fs::resize_file(record_path(key), 10);  // not even a full header

  EXPECT_FALSE(cache.find<double>(key).has_value());
  EXPECT_EQ(core::result_cache_stats().corrupt_records, 1u);
}

TEST_F(ResultCacheTest, GarbagePayloadBytesFailChecksum) {
  auto& cache = core::ResultCache::instance();
  const auto key = key_of(12);
  cache.store(key, payload(32, 4.0));
  cache.clear_memory();
  clobber(record_path(key), 48 + 17, 0xA5);  // flip one payload byte

  core::CacheProbe probe;
  EXPECT_FALSE(cache.find<double>(key, &probe).has_value());
  EXPECT_STREQ(probe.source, "corrupt");
}

TEST_F(ResultCacheTest, BadMagicFallsBackToMiss) {
  auto& cache = core::ResultCache::instance();
  const auto key = key_of(13);
  cache.store(key, payload(8, 5.0));
  cache.clear_memory();
  clobber(record_path(key), 0, 'X');

  core::CacheProbe probe;
  EXPECT_FALSE(cache.find<double>(key, &probe).has_value());
  EXPECT_STREQ(probe.source, "corrupt");
}

TEST_F(ResultCacheTest, WrongVersionHeaderFallsBackToMiss) {
  auto& cache = core::ResultCache::instance();
  const auto key = key_of(14);
  cache.store(key, payload(8, 6.0));
  cache.clear_memory();
  // The version field is the u32 at offset 4; kResultCacheVersion < 255.
  clobber(record_path(key), 4, 0xFF);

  core::CacheProbe probe;
  EXPECT_FALSE(cache.find<double>(key, &probe).has_value());
  EXPECT_STREQ(probe.source, "version-skew");
  EXPECT_EQ(core::result_cache_stats().version_skew, 1u);
}

TEST_F(ResultCacheTest, ElementSizeMismatchFallsBackToMiss) {
  auto& cache = core::ResultCache::instance();
  const auto key = key_of(15);
  cache.store(key, payload(8, 7.0));  // stored as double
  cache.clear_memory();

  core::CacheProbe probe;
  EXPECT_FALSE(cache.find<float>(key, &probe).has_value());  // asked as float
  EXPECT_STREQ(probe.source, "type-mismatch");
  EXPECT_EQ(core::result_cache_stats().type_mismatch, 1u);
}

TEST_F(ResultCacheTest, UnwritableCacheDirDegradesToMemoryOnly) {
  // Point the disk tier at a path occupied by a regular file: directory
  // creation fails no matter the privilege level (chmod tricks don't bind
  // under root, which CI containers run as).
  fs::create_directories(dir_);
  const fs::path blocker = dir_ / "blocker";
  std::ofstream(blocker).put('x');
  core::configure_result_cache(
      {.enabled = true, .disk = true, .dir = blocker.string(), .max_entries = 64});
  core::reset_result_cache_stats();

  auto& cache = core::ResultCache::instance();
  const auto key = key_of(16);
  const auto value = payload(16, 8.0);
  EXPECT_TRUE(cache.store(key, value));  // absorbed: memory still lands
  cache.flush();
  EXPECT_EQ(core::result_cache_stats().io_errors, 1u);

  const auto mem = cache.find<double>(key);
  ASSERT_TRUE(mem.has_value());
  EXPECT_EQ(*mem, value);

  cache.clear_memory();
  EXPECT_FALSE(cache.find<double>(key).has_value());  // no disk record exists
}

TEST_F(ResultCacheTest, CorruptedSweepRecordNeverChangesSweepResults) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOn);
  const core::DenseSweepRequest req{.kernel = core::KernelId::kGemm,
                                    .n_lo = 256,
                                    .n_hi = 2304,
                                    .n_step = 1024,
                                    .nb_lo = 128,
                                    .nb_hi = 512,
                                    .nb_step = 128};
  const auto cold = core::sweep_dense(p, req);

  auto& cache = core::ResultCache::instance();
  cache.clear_memory();
  clobber(record_path(core::sweep_cache_key(p, req)), 48 + 3, 0x5A);
  const auto after_fault = core::sweep_dense(p, req);  // recompute, no crash
  EXPECT_TRUE(cold == after_fault);
  EXPECT_GE(core::result_cache_stats().corrupt_records, 1u);

  // The recompute re-published a healthy record; the next cold process
  // (simulated by clearing memory) hits disk again.
  cache.clear_memory();
  core::CacheProbe probe;
  const auto healed =
      cache.find<core::SweepPoint>(core::sweep_cache_key(p, req), &probe);
  ASSERT_TRUE(healed.has_value());
  EXPECT_STREQ(probe.source, "disk");
  EXPECT_TRUE(cold == *healed);
}

// ------------------------------------------------------- sweep integration --

TEST_F(ResultCacheTest, ColdAndWarmSweepsBitIdenticalAcrossWorkerCounts) {
  const sim::Platform p = sim::knl(sim::McdramMode::kCache);
  const auto suite = sparse::SyntheticCollection::test_suite(48, 200000);
  const core::SparseSweepRequest req{.kernel = core::KernelId::kSptrsv};

  core::set_sweep_workers(0);
  const auto cold = core::sweep_sparse(p, req, suite);

  auto& cache = core::ResultCache::instance();
  for (std::size_t workers : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
    core::set_sweep_workers(workers);
    const auto warm_mem = core::sweep_sparse(p, req, suite);
    EXPECT_TRUE(cold == warm_mem) << "memory tier, workers " << workers;
    cache.clear_memory();
    const auto warm_disk = core::sweep_sparse(p, req, suite);
    EXPECT_TRUE(cold == warm_disk) << "disk tier, workers " << workers;
  }
}

TEST_F(ResultCacheTest, SweepStatsCarryCacheTelemetry) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOff);
  const core::FootprintSweepRequest req{
      .kernel = core::KernelId::kStream, .fp_lo = 1e6, .fp_hi = 1e8, .points = 16};

  core::drain_sweep_stats();
  core::sweep_footprint_kernel(p, req);  // cold: compute, then store
  auto stats = core::drain_sweep_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "sweep_footprint:Stream");
  EXPECT_EQ(stats[0].cache_misses, 1u);
  EXPECT_EQ(stats[0].cache_hits, 0u);
  EXPECT_EQ(stats[0].cache_source, "cold");
  EXPECT_EQ(stats[0].cache_bytes_stored, 16 * sizeof(core::SweepPoint));
  EXPECT_GT(stats[0].cache_seconds, 0.0);

  core::sweep_footprint_kernel(p, req);  // warm: memory hit
  stats = core::drain_sweep_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].cache_hits, 1u);
  EXPECT_EQ(stats[0].cache_source, "memory");
  EXPECT_EQ(stats[0].cache_bytes_loaded, 16 * sizeof(core::SweepPoint));
  EXPECT_EQ(stats[0].items, 16u);
  EXPECT_EQ(stats[0].tasks, 0u);  // no compute fan-out happened

  core::ResultCache::instance().clear_memory();
  core::sweep_footprint_kernel(p, req);  // warm: disk hit
  stats = core::drain_sweep_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].cache_source, "disk");
}

// ------------------------------------------------------------------ hashing --

TEST(Fingerprint, HexRendersThirtyTwoLowercaseDigits) {
  util::Hasher128 h;
  h.add(std::string_view("abc"));
  const std::string hex = h.digest().hex();
  EXPECT_EQ(hex.size(), 32u);
  for (char c : hex) EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
}

TEST(Fingerprint, LengthFramingSeparatesConcatenations) {
  // ("ab","c") and ("a","bc") concatenate identically; the length prefix
  // must keep their digests apart.
  util::Hasher128 h1, h2;
  h1.add(std::string_view("ab"));
  h1.add(std::string_view("c"));
  h2.add(std::string_view("a"));
  h2.add(std::string_view("bc"));
  EXPECT_FALSE(h1.digest() == h2.digest());
}

TEST(Fingerprint, DoublesHashByBitPattern) {
  util::Hasher128 pos, neg;
  pos.add(0.0);
  neg.add(-0.0);
  EXPECT_FALSE(pos.digest() == neg.digest());  // 0.0 == -0.0 but distinct bits
}

TEST(Fingerprint, DigestIsIdempotentAndStreamsAreOrderSensitive) {
  util::Hasher128 h;
  h.add(std::uint64_t{1});
  h.add(std::uint64_t{2});
  const auto d1 = h.digest();
  const auto d2 = h.digest();  // digest() must not mutate the hasher
  EXPECT_TRUE(d1 == d2);

  util::Hasher128 swapped;
  swapped.add(std::uint64_t{2});
  swapped.add(std::uint64_t{1});
  EXPECT_FALSE(swapped.digest() == d1);
}

}  // namespace
}  // namespace opm
