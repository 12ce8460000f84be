// Content-addressed result store: round-trips, corruption detection,
// concurrent writers, eviction bound, schema-bump invalidation, the
// byte-exact payload codec behind SensitivityStudy's cell cache, and that
// cell cache end to end (a warm study answers every cell from the store).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/codec.h"
#include "cache/store.h"
#include "obs/record.h"
#include "platform/platform.h"
#include "platform/study.h"

namespace wmm::cache {
namespace {

namespace fs = std::filesystem;

// A unique store root under the system temp directory, removed on scope
// exit so repeated test runs never see each other's entries.
class TempRoot {
 public:
  explicit TempRoot(const std::string& tag) {
    root_ = fs::temp_directory_path() /
            ("wmm_cache_test_" + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(root_);
  }
  ~TempRoot() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  std::string str() const { return root_.string(); }

 private:
  fs::path root_;
};

CacheConfig config_for(const TempRoot& root) {
  CacheConfig config;
  config.root = root.str();
  return config;
}

TEST(ResultCacheTest, RoundTripsValuesByDomainAndKey) {
  TempRoot root("roundtrip");
  ResultCache cache(config_for(root));

  EXPECT_FALSE(cache.get("fuzz", "absent").has_value());
  cache.put("fuzz", "prog-1", "17");
  cache.put("study", "prog-1", "cell-payload");  // same key, other domain

  const auto fuzz = cache.get("fuzz", "prog-1");
  ASSERT_TRUE(fuzz.has_value());
  EXPECT_EQ(*fuzz, "17");
  const auto study = cache.get("study", "prog-1");
  ASSERT_TRUE(study.has_value());
  EXPECT_EQ(*study, "cell-payload");

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.writes, 2u);
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(cache.usage().entries, 2u);
}

TEST(ResultCacheTest, EntriesSurviveReopen) {
  TempRoot root("reopen");
  {
    ResultCache cache(config_for(root));
    cache.put("litmus", "MP+pos", "1111111111");
  }
  ResultCache reopened(config_for(root));
  const auto hit = reopened.get("litmus", "MP+pos");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "1111111111");
}

TEST(ResultCacheTest, ChecksumDetectsBitFlip) {
  TempRoot root("bitflip");
  ResultCache cache(config_for(root));
  cache.put("fuzz", "prog", "123456789");
  const fs::path path = cache.entry_path("fuzz", "prog");
  ASSERT_TRUE(fs::exists(path));

  // Flip one bit in the middle of the entry file.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  bytes[bytes.size() / 2] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  EXPECT_FALSE(cache.get("fuzz", "prog").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
  // Corrupt entries are deleted on sight; the next probe is a clean miss.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(cache.get("fuzz", "prog").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST(ResultCacheTest, TruncatedEntryIsCorrupt) {
  TempRoot root("truncate");
  ResultCache cache(config_for(root));
  cache.put("fuzz", "prog", "payload");
  const fs::path path = cache.entry_path("fuzz", "prog");
  fs::resize_file(path, fs::file_size(path) / 2);
  EXPECT_FALSE(cache.get("fuzz", "prog").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST(ResultCacheTest, ConcurrentWritersAndReadersConverge) {
  TempRoot root("concurrent");
  ResultCache cache(config_for(root));

  constexpr int kThreads = 8;
  constexpr int kKeys = 32;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int round = 0; round < 4; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          const std::string key = "key-" + std::to_string(k);
          const std::string value = "value-" + std::to_string(k);
          // All writers publish the same value per key: the benign
          // last-rename-wins race must never surface a torn or mixed entry.
          cache.put("fuzz", key, value);
          const auto hit = cache.get("fuzz", key);
          if (hit) {
            EXPECT_EQ(*hit, value) << "thread " << t;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int k = 0; k < kKeys; ++k) {
    const auto hit = cache.get("fuzz", "key-" + std::to_string(k));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "value-" + std::to_string(k));
  }
  EXPECT_EQ(cache.stats().corrupt, 0u);
  EXPECT_EQ(cache.usage().entries, static_cast<std::uint64_t>(kKeys));
}

TEST(ResultCacheTest, EvictionRespectsSizeBound) {
  TempRoot root("evict");
  CacheConfig config = config_for(root);
  config.max_bytes = 8 * 1024;
  ResultCache cache(config);

  const std::string value(512, 'x');
  for (int k = 0; k < 64; ++k) {
    cache.put("study", "cell-" + std::to_string(k), value);
  }

  const ResultCache::Usage usage = cache.usage();
  EXPECT_LE(usage.bytes, config.max_bytes);
  EXPECT_GT(cache.stats().evictions, 0u);
  // Eviction trims, it does not wipe: recent entries are still served.
  EXPECT_GT(usage.entries, 0u);
  const auto newest = cache.get("study", "cell-63");
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, value);
}

TEST(ResultCacheTest, SchemaBumpInvalidatesOldEntries) {
  TempRoot root("schema");
  CacheConfig config = config_for(root);
  config.schema_override = 0x1111;
  {
    ResultCache cache(config);
    cache.put("fuzz", "prog", "old-engine-value");
    ASSERT_TRUE(cache.get("fuzz", "prog").has_value());
  }

  // Same root, bumped schema: the old entry must read as a miss, never as a
  // stale hit.
  config.schema_override = 0x2222;
  ResultCache bumped(config);
  EXPECT_FALSE(bumped.get("fuzz", "prog").has_value());
  bumped.put("fuzz", "prog", "new-engine-value");
  const auto hit = bumped.get("fuzz", "prog");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "new-engine-value");

  // And the old engine keeps seeing its own entry (distinct addresses).
  config.schema_override = 0x1111;
  ResultCache old_engine(config);
  const auto old_hit = old_engine.get("fuzz", "prog");
  ASSERT_TRUE(old_hit.has_value());
  EXPECT_EQ(*old_hit, "old-engine-value");
}

TEST(ResultCacheTest, ExtraFingerprintPartitionsTheStore) {
  TempRoot root("fingerprint");
  CacheConfig config = config_for(root);
  config.extra_fingerprint = 1;
  ResultCache a(config);
  a.put("fuzz", "prog", "a");

  config.extra_fingerprint = 2;
  ResultCache b(config);
  EXPECT_FALSE(b.get("fuzz", "prog").has_value());
}

TEST(CacheCodecTest, ComparisonRoundTripsBitForBit) {
  core::Comparison cmp;
  cmp.value = 0.87345621;
  cmp.min = 0.801;
  cmp.max = 0.949;
  cmp.ci95 = 0.0212;

  const std::string bytes = encode_comparison(cmp);
  const auto decoded = decode_comparison(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(encode_comparison(*decoded), bytes);
  EXPECT_EQ(decoded->value, cmp.value);
  EXPECT_EQ(decoded->ci95, cmp.ci95);

  EXPECT_FALSE(decode_comparison(bytes.substr(0, bytes.size() - 1)));
  EXPECT_FALSE(decode_comparison(bytes + "x"));
}

TEST(CacheCodecTest, SweepResultRoundTripsBitForBit) {
  core::SweepResult sweep;
  sweep.benchmark = "spark";
  sweep.code_path = "all-barriers";
  sweep.points = {{12.5, 0.99}, {100.0, 0.91}, {1000.0, 0.42}};
  sweep.fit.k = 0.0087;
  sweep.fit.stderr_k = 0.0005;
  sweep.fit.chi2 = 1.75;
  sweep.fit.converged = true;

  const std::string bytes = encode_sweep_result(sweep);
  const auto decoded = decode_sweep_result(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(encode_sweep_result(*decoded), bytes);
  EXPECT_EQ(decoded->benchmark, sweep.benchmark);
  ASSERT_EQ(decoded->points.size(), sweep.points.size());
  EXPECT_EQ(decoded->points[2].cost_ns, sweep.points[2].cost_ns);
  EXPECT_TRUE(decoded->fit.converged);

  EXPECT_FALSE(decode_sweep_result(bytes.substr(0, bytes.size() / 2)));
  EXPECT_FALSE(decode_sweep_result(bytes + std::string(1, '\0')));
}

TEST(CacheCodecTest, RunOptionsDescriptionSeparatesConfigs) {
  core::RunOptions a{2, 6};
  core::RunOptions b{2, 6};
  EXPECT_EQ(describe_run_options(a), describe_run_options(b));
  b.samples = 7;
  EXPECT_NE(describe_run_options(a), describe_run_options(b));
  b = a;
  b.cv_warn_threshold = 0.5;
  EXPECT_NE(describe_run_options(a), describe_run_options(b));
}

// A small sweep and ranking, run with no store, then cold and warm through
// set_cache.  The warm run answers every cell from the store and writes
// nothing; its sweep and comparison records equal the cold run's and the
// store-less run's byte for byte.
TEST(StudyCacheTest, WarmStudyAnswersEveryCellFromTheStore) {
  platform::register_builtin_platforms();
  const std::unique_ptr<platform::Platform> jvm =
      platform::make_platform("jvm", sim::Arch::ARMV8);

  core::SweepStudyConfig sweep;
  sweep.benchmarks = {"spark"};
  sweep.code_paths = {{"all-barriers", {}}};
  sweep.max_exponent = 2;
  sweep.runs = core::RunOptions{1, 2};

  core::RankingStudyConfig ranking;
  ranking.benchmarks = {"spark"};
  ranking.sites = {jvm->site_ids().at(0), jvm->site_ids().at(1)};
  ranking.runs = core::RunOptions{1, 2};
  const std::uint64_t cells = 1 + 2;

  const auto records = [&](ResultCache* store) {
    core::SensitivityStudy study(*jvm, 2);
    study.set_cache(store);
    std::vector<std::string> lines;
    for (const core::SweepResult& s : study.sweeps(sweep)) {
      lines.push_back(obs::sweep_line("arm", s));
    }
    study.ranking(ranking, [&](const std::string& site,
                               const std::string& benchmark,
                               const core::Comparison& cmp) {
      lines.push_back(
          obs::comparison_line("jvm/arm", benchmark, "base", site, cmp));
    });
    return lines;
  };

  const std::vector<std::string> direct = records(nullptr);
  ASSERT_EQ(direct.size(), cells);

  TempRoot root("study");
  ResultCache store(config_for(root));
  const std::vector<std::string> cold = records(&store);
  const CacheStats after_cold = store.stats();
  EXPECT_EQ(after_cold.hits, 0u);
  EXPECT_EQ(after_cold.writes, cells);

  const std::vector<std::string> warm = records(&store);
  const CacheStats after_warm = store.stats();
  EXPECT_EQ(after_warm.hits, cells);
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_EQ(after_warm.writes, after_cold.writes);

  EXPECT_EQ(cold, direct);
  EXPECT_EQ(warm, direct);
}

}  // namespace
}  // namespace wmm::cache
