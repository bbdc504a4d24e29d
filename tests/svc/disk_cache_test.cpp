/// \file disk_cache_test.cpp
/// The crash-safety contract of the persistent result cache: atomic
/// store visibility (a killed-mid-write store leaves only a swept tmp
/// orphan), checksummed reads (truncation and bit flips are misses,
/// never wrong results, never exceptions), byte-cap eviction, and a
/// bit-exact serialize/deserialize roundtrip of JobResult -- the
/// restart-survival property layered under the scheduler's in-memory
/// cross-job cache.

#include "svc/disk_cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/failpoint.hpp"

namespace elrr::svc {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test directory under the build tree's temp space.
class DiskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("elrr_disk_cache_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    failpoint::reset();
    fs::remove_all(dir_);
  }

  DiskCache make(std::size_t cap = 0) {
    DiskCacheOptions options;
    options.dir = dir_.string();
    options.cap_bytes = cap;
    return DiskCache(options);
  }

  std::vector<fs::path> entry_files() const {
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().extension() == ".entry") files.push_back(e.path());
    }
    return files;
  }

  fs::path dir_;
};

JobResult sample_result() {
  JobResult result;
  result.id = 7;
  result.name = "s838";
  result.mode = JobMode::kMinEffCyc;
  result.state = JobState::kDone;
  result.tau = 1.25;
  result.theta_sim = 0.8125;
  result.xi_sim = 1.5384615384615385;
  result.circuit.name = "s838";
  result.circuit.n_simple = 10;
  result.circuit.n_early = 4;
  result.circuit.n_edges = 9;
  result.circuit.xi_star = 2.0;
  result.circuit.xi_nee = 1.75;
  result.circuit.xi_lp_min = 1.6;
  result.circuit.xi_sim_min = 1.5384615384615385;
  result.circuit.improve_percent = 12.087912087912088;
  result.circuit.delta_percent = 4.0;
  result.circuit.all_exact = true;
  result.circuit.seconds = 0.5;
  result.circuit.candidates_walked = 6;
  result.circuit.sim_jobs = 4;
  result.circuit.unique_simulations = 3;
  result.circuit.exact_thetas = 1;
  result.circuit.walk_seconds = 0.25;
  result.circuit.sim_wait_seconds = 0.125;
  for (int i = 0; i < 3; ++i) {
    flow::CandidateRow row;
    row.tau = 1.0 + 0.25 * i;
    row.theta_lp = 0.75 + 0.01 * i;
    row.theta_sim = 0.76 + 0.01 * i;
    row.err_percent = -1.3;
    row.xi_lp = row.tau / row.theta_lp;
    row.xi_sim = row.tau / row.theta_sim;
    row.bubbles = i;
    row.exact = i != 1;
    result.circuit.candidates.push_back(row);
  }
  return result;
}

void expect_same_result(const JobResult& a, const JobResult& b) {
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.tau, b.tau);
  EXPECT_EQ(a.theta_sim, b.theta_sim);
  EXPECT_EQ(a.xi_sim, b.xi_sim);
  EXPECT_EQ(a.circuit.name, b.circuit.name);
  EXPECT_EQ(a.circuit.n_simple, b.circuit.n_simple);
  EXPECT_EQ(a.circuit.n_early, b.circuit.n_early);
  EXPECT_EQ(a.circuit.n_edges, b.circuit.n_edges);
  EXPECT_EQ(a.circuit.xi_star, b.circuit.xi_star);
  EXPECT_EQ(a.circuit.xi_nee, b.circuit.xi_nee);
  EXPECT_EQ(a.circuit.xi_lp_min, b.circuit.xi_lp_min);
  EXPECT_EQ(a.circuit.xi_sim_min, b.circuit.xi_sim_min);
  EXPECT_EQ(a.circuit.improve_percent, b.circuit.improve_percent);
  EXPECT_EQ(a.circuit.delta_percent, b.circuit.delta_percent);
  EXPECT_EQ(a.circuit.all_exact, b.circuit.all_exact);
  ASSERT_EQ(a.circuit.candidates.size(), b.circuit.candidates.size());
  for (std::size_t i = 0; i < a.circuit.candidates.size(); ++i) {
    const flow::CandidateRow& ra = a.circuit.candidates[i];
    const flow::CandidateRow& rb = b.circuit.candidates[i];
    EXPECT_EQ(ra.tau, rb.tau) << i;
    EXPECT_EQ(ra.theta_lp, rb.theta_lp) << i;
    EXPECT_EQ(ra.theta_sim, rb.theta_sim) << i;
    EXPECT_EQ(ra.err_percent, rb.err_percent) << i;
    EXPECT_EQ(ra.xi_lp, rb.xi_lp) << i;
    EXPECT_EQ(ra.xi_sim, rb.xi_sim) << i;
    EXPECT_EQ(ra.bubbles, rb.bubbles) << i;
    EXPECT_EQ(ra.exact, rb.exact) << i;
  }
}

TEST_F(DiskCacheTest, SerializeRoundtripIsBitExact) {
  const JobResult original = sample_result();
  const std::string payload = serialize_job_result(original);
  const std::optional<JobResult> restored = deserialize_job_result(payload);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->state, JobState::kDone);
  expect_same_result(original, *restored);
  // Serialization is canonical: the roundtrip re-serializes identically.
  EXPECT_EQ(serialize_job_result(*restored), payload);
}

TEST_F(DiskCacheTest, DeserializeRejectsMalformedPayloads) {
  const std::string payload = serialize_job_result(sample_result());
  EXPECT_FALSE(deserialize_job_result("").has_value());
  EXPECT_FALSE(
      deserialize_job_result(payload.substr(0, payload.size() / 2))
          .has_value());
  EXPECT_FALSE(deserialize_job_result(payload + "x").has_value());
  std::string wrong_version = payload;
  wrong_version[0] = static_cast<char>(wrong_version[0] + 1);
  EXPECT_FALSE(deserialize_job_result(wrong_version).has_value());
}

TEST_F(DiskCacheTest, StoreThenLoadAcrossRestarts) {
  const std::string payload = serialize_job_result(sample_result());
  {
    DiskCache cache = make();
    EXPECT_FALSE(cache.load("key-1").has_value());
    cache.store("key-1", payload);
    const auto hit = cache.load("key-1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, payload);
    const DiskCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
  }
  // A new instance over the same directory -- a process restart -- sees
  // the identical bytes.
  DiskCache reopened = make();
  EXPECT_EQ(reopened.stats().entries, 1u);
  const auto hit = reopened.load("key-1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, payload);
}

TEST_F(DiskCacheTest, TruncatedEntryIsAMissAndIsUnlinked) {
  DiskCache cache = make();
  cache.store("key-t", serialize_job_result(sample_result()));
  const std::vector<fs::path> files = entry_files();
  ASSERT_EQ(files.size(), 1u);
  // Torn write: keep the first half of the entry file.
  std::string bytes;
  {
    std::ifstream in(files[0], std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  {
    std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(cache.load("key-t").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_TRUE(entry_files().empty());  // recomputed next time, not retried
}

TEST_F(DiskCacheTest, BitFlippedEntryIsAMissNeverAWrongResult) {
  DiskCache cache = make();
  const std::string payload = serialize_job_result(sample_result());
  cache.store("key-f", payload);
  const std::vector<fs::path> files = entry_files();
  ASSERT_EQ(files.size(), 1u);
  std::string bytes;
  {
    std::ifstream in(files[0], std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Flip one bit in the middle of the payload region.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  {
    std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(cache.load("key-f").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

/// The SIGKILL-mid-store model: the `disk_cache.store` fail point fires
/// after the tmp file is written, before the atomic rename. No entry
/// becomes visible, and the next construction sweeps the orphan.
TEST_F(DiskCacheTest, KilledMidStoreLeavesNoVisibleEntry) {
  const std::string payload = serialize_job_result(sample_result());
  {
    DiskCache cache = make();
    failpoint::configure("disk_cache.store=once");
    cache.store("key-k", payload);
    failpoint::reset();
    EXPECT_EQ(cache.stats().store_errors, 1u);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_FALSE(cache.load("key-k").has_value());
    EXPECT_TRUE(entry_files().empty());
  }
  // The torn tmp file exists until a restart sweeps it.
  std::size_t tmp_count = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    tmp_count += e.path().extension() == ".tmp" ? 1 : 0;
  }
  EXPECT_EQ(tmp_count, 1u);
  DiskCache reopened = make();
  for (const auto& e : fs::directory_iterator(dir_)) {
    EXPECT_NE(e.path().extension(), ".tmp") << e.path();
  }
  // And the store works once the fault is gone.
  reopened.store("key-k", payload);
  EXPECT_TRUE(reopened.load("key-k").has_value());
}

TEST_F(DiskCacheTest, LoadFaultIsAContainedMiss) {
  DiskCache cache = make();
  cache.store("key-l", serialize_job_result(sample_result()));
  failpoint::configure("disk_cache.load=once");
  EXPECT_FALSE(cache.load("key-l").has_value());
  failpoint::reset();
  EXPECT_TRUE(cache.load("key-l").has_value());  // entry survived the fault
}

TEST_F(DiskCacheTest, ByteCapEvictsOldestButKeepsNewest) {
  DiskCache cache = make(/*cap=*/1);  // every store exceeds the cap
  const std::string payload = serialize_job_result(sample_result());
  cache.store("key-a", payload);
  cache.store("key-b", payload);
  const DiskCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);  // never evicts below one entry
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_FALSE(cache.load("key-a").has_value());
  EXPECT_TRUE(cache.load("key-b").has_value());
}

TEST_F(DiskCacheTest, UnusableDirectoryThrowsAtConstruction) {
  std::ofstream block(dir_.string() + "_file");
  block << "x";
  block.close();
  DiskCacheOptions options;
  options.dir = dir_.string() + "_file";  // a file, not a directory
  EXPECT_THROW(DiskCache{options}, InvalidInputError);
  fs::remove(dir_.string() + "_file");
}

}  // namespace
}  // namespace elrr::svc
