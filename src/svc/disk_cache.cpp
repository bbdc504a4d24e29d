#include "svc/disk_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "obs/trace.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"

namespace elrr::svc {

namespace fs = std::filesystem;

namespace {

using bytes::append_value;

constexpr std::uint32_t kMagic = 0x43524c45;  // "ELRC"
constexpr std::uint32_t kEntryVersion = 1;
constexpr std::uint32_t kPayloadVersion = 2;

std::uint64_t fnv1a(const char* data, std::size_t size,
                    std::uint64_t hash = 1469598103934665603ULL) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buffer);
}

void append_string(std::string& out, const std::string& text) {
  append_value(out, static_cast<std::uint64_t>(text.size()));
  out.append(text);
}

/// Bounds-checked sequential reader over a byte payload. Every read_*
/// returns false on truncation; the deserializer turns that into a miss
/// instead of reading garbage.
struct Reader {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  bool read_bytes(void* out, std::size_t n) {
    if (size - pos < n) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
  template <class T>
  bool read_value(T* out) {
    return read_bytes(out, sizeof(T));
  }
  bool read_string(std::string* out) {
    std::uint64_t length = 0;
    if (!read_value(&length)) return false;
    if (size - pos < length) return false;
    out->assign(data + pos, static_cast<std::size_t>(length));
    pos += static_cast<std::size_t>(length);
    return true;
  }
  bool exhausted() const { return pos == size; }
};

/// One on-disk entry image: header + key + payload + trailing checksum.
/// The checksum covers everything before it, so any torn write, bit flip
/// or truncation is detected in one comparison.
std::string encode_entry(const std::string& key, const std::string& payload) {
  std::string entry;
  entry.reserve(key.size() + payload.size() + 40);
  append_value(entry, kMagic);
  append_value(entry, kEntryVersion);
  append_string(entry, key);
  append_string(entry, payload);
  append_value(entry, fnv1a(entry.data(), entry.size()));
  return entry;
}

/// Decodes + verifies an entry image; nullopt on any inconsistency. The
/// stored key must equal the requested one -- a 64-bit filename-hash
/// collision is thereby a miss, never a wrong result.
std::optional<std::string> decode_entry(const std::string& entry,
                                        const std::string& key) {
  if (entry.size() < sizeof(std::uint64_t)) return std::nullopt;
  const std::size_t body = entry.size() - sizeof(std::uint64_t);
  std::uint64_t checksum = 0;
  std::memcpy(&checksum, entry.data() + body, sizeof(checksum));
  if (fnv1a(entry.data(), body) != checksum) return std::nullopt;
  Reader reader{entry.data(), body};
  std::uint32_t magic = 0, version = 0;
  if (!reader.read_value(&magic) || magic != kMagic) return std::nullopt;
  if (!reader.read_value(&version) || version != kEntryVersion) {
    return std::nullopt;
  }
  std::string stored_key;
  if (!reader.read_string(&stored_key) || stored_key != key) {
    return std::nullopt;
  }
  std::string payload;
  if (!reader.read_string(&payload) || !reader.exhausted()) {
    return std::nullopt;
  }
  return payload;
}

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) return std::nullopt;
  return content;
}

}  // namespace

DiskCache::DiskCache(const DiskCacheOptions& options)
    : dir_(options.dir), cap_bytes_(options.cap_bytes) {
  ELRR_REQUIRE(!dir_.empty(), "disk cache directory must not be empty");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_, ec)) {
    throw InvalidInputError(detail::concat(
        "disk cache directory \"", dir_, "\" cannot be created: ",
        ec.message()));
  }
  // Inventory + recovery sweep: orphaned *.tmp files are the debris of a
  // crash (or SIGKILL) between temp write and rename -- by construction
  // they were never visible as entries, so unlinking is always safe.
  for (const fs::directory_entry& file : fs::directory_iterator(dir_, ec)) {
    if (!file.is_regular_file(ec)) continue;
    const fs::path& path = file.path();
    if (path.extension() == ".tmp") {
      fs::remove(path, ec);
      continue;
    }
    if (path.extension() == ".entry") {
      ++stats_.entries;
      stats_.bytes += static_cast<std::size_t>(file.file_size(ec));
    }
  }
}

std::string DiskCache::entry_path(const std::string& key) const {
  return dir_ + "/" + hex64(fnv1a(key.data(), key.size())) + ".entry";
}

std::optional<std::string> DiskCache::load(const std::string& key) {
  OBS_SPAN("disk_cache.load");
  const std::lock_guard<std::mutex> lock(mutex_);
  try {
    failpoint::trip("disk_cache.load");
    const fs::path path = entry_path(key);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      ++stats_.misses;
      return std::nullopt;
    }
    const std::optional<std::string> entry = read_file(path);
    std::optional<std::string> payload;
    if (entry.has_value()) payload = decode_entry(*entry, key);
    if (!payload.has_value()) {
      // Torn or corrupted: unlink so the recomputed result can be
      // re-stored cleanly instead of colliding with the bad file forever.
      ++stats_.corrupt;
      ++stats_.misses;
      std::uintmax_t bytes = fs::file_size(path, ec);
      if (fs::remove(path, ec)) {
        stats_.entries -= stats_.entries > 0 ? 1 : 0;
        stats_.bytes -= std::min<std::size_t>(
            stats_.bytes, static_cast<std::size_t>(bytes));
      }
      return std::nullopt;
    }
    // LRU touch: eviction is oldest-mtime-first, so a hit refreshes.
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    ++stats_.hits;
    return payload;
  } catch (...) {
    // Containment: an IO fault (injected or real) is a miss, never an
    // exception into the scheduler's serving path.
    ++stats_.misses;
    return std::nullopt;
  }
}

void DiskCache::store(const std::string& key, const std::string& payload) {
  OBS_SPAN("disk_cache.store");
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::string entry = encode_entry(key, payload);
  const fs::path path = entry_path(key);
  const fs::path tmp =
      fs::path(dir_) / (hex64(fnv1a(key.data(), key.size())) + "." +
                        std::to_string(++tmp_counter_) + ".tmp");
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) throw InternalError("disk cache: temp file open failed");
      out.write(entry.data(), static_cast<std::streamsize>(entry.size()));
      out.flush();
      if (!out.good()) throw InternalError("disk cache: temp write failed");
    }
    // Crash window under test: the `disk_cache.store` site fires after
    // the temp file is complete but before the rename -- exactly what a
    // SIGKILL here leaves behind. The orphan stays (the construction
    // sweep owns cleanup) and the entry is simply never published.
    failpoint::trip("disk_cache.store");
    std::error_code ec;
    const bool existed = fs::exists(path, ec);
    const std::uintmax_t old_bytes = existed ? fs::file_size(path, ec) : 0;
    fs::rename(tmp, path, ec);  // atomic publish (same directory)
    if (ec) throw InternalError("disk cache: rename failed");
    if (existed) {
      stats_.bytes -= std::min<std::size_t>(
          stats_.bytes, static_cast<std::size_t>(old_bytes));
    } else {
      ++stats_.entries;
    }
    stats_.bytes += entry.size();
    ++stats_.stores;
    evict_over_cap_locked();
  } catch (...) {
    ++stats_.store_errors;
  }
}

void DiskCache::evict_over_cap_locked() {
  if (cap_bytes_ == 0 || stats_.bytes <= cap_bytes_) return;
  struct Candidate {
    fs::path path;
    fs::file_time_type mtime;
    std::size_t bytes;
  };
  std::error_code ec;
  std::vector<Candidate> candidates;
  for (const fs::directory_entry& file : fs::directory_iterator(dir_, ec)) {
    if (!file.is_regular_file(ec)) continue;
    if (file.path().extension() != ".entry") continue;
    candidates.push_back({file.path(), file.last_write_time(ec),
                          static_cast<std::size_t>(file.file_size(ec))});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.mtime < b.mtime;
            });
  // Keep at least the newest entry: a cache whose cap is smaller than
  // one result would otherwise thrash to empty.
  for (std::size_t i = 0;
       i + 1 < candidates.size() && stats_.bytes > cap_bytes_; ++i) {
    if (!fs::remove(candidates[i].path, ec)) continue;
    stats_.bytes -= std::min(stats_.bytes, candidates[i].bytes);
    stats_.entries -= stats_.entries > 0 ? 1 : 0;
    ++stats_.evictions;
  }
}

DiskCacheStats DiskCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string serialize_job_result(const JobResult& result) {
  std::string out;
  append_value(out, kPayloadVersion);
  append_value(out, static_cast<std::uint8_t>(result.mode));
  append_value(out, result.tau);
  append_value(out, result.theta_sim);
  append_value(out, result.xi_sim);
  const flow::CircuitResult& c = result.circuit;
  append_string(out, c.name);
  append_value(out, static_cast<std::int32_t>(c.n_simple));
  append_value(out, static_cast<std::int32_t>(c.n_early));
  append_value(out, static_cast<std::int32_t>(c.n_edges));
  append_value(out, c.xi_star);
  append_value(out, c.xi_nee);
  append_value(out, c.xi_lp_min);
  append_value(out, c.xi_sim_min);
  append_value(out, c.improve_percent);
  append_value(out, c.delta_percent);
  append_value(out, static_cast<std::uint8_t>(c.all_exact));
  append_value(out, c.seconds);
  append_value(out, static_cast<std::uint64_t>(c.candidates_walked));
  append_value(out, static_cast<std::uint64_t>(c.sim_jobs));
  append_value(out, static_cast<std::uint64_t>(c.unique_simulations));
  append_value(out, static_cast<std::uint64_t>(c.exact_thetas));
  append_value(out, c.walk_seconds);
  append_value(out, c.sim_wait_seconds);
  append_value(out, static_cast<std::uint64_t>(c.candidates.size()));
  for (const flow::CandidateRow& row : c.candidates) {
    append_value(out, row.tau);
    append_value(out, row.theta_lp);
    append_value(out, row.theta_sim);
    append_value(out, row.err_percent);
    append_value(out, row.xi_lp);
    append_value(out, row.xi_sim);
    append_value(out, static_cast<std::int32_t>(row.bubbles));
    append_value(out, static_cast<std::uint8_t>(row.exact));
  }
  return out;
}

std::optional<JobResult> deserialize_job_result(const std::string& payload) {
  Reader reader{payload.data(), payload.size()};
  std::uint32_t version = 0;
  if (!reader.read_value(&version) || version != kPayloadVersion) {
    return std::nullopt;
  }
  JobResult result;
  std::uint8_t mode = 0;
  if (!reader.read_value(&mode)) return std::nullopt;
  result.mode = static_cast<JobMode>(mode);
  if (!reader.read_value(&result.tau)) return std::nullopt;
  if (!reader.read_value(&result.theta_sim)) return std::nullopt;
  if (!reader.read_value(&result.xi_sim)) return std::nullopt;
  flow::CircuitResult& c = result.circuit;
  std::int32_t i32 = 0;
  std::uint8_t u8 = 0;
  std::uint64_t u64 = 0;
  if (!reader.read_string(&c.name)) return std::nullopt;
  if (!reader.read_value(&i32)) return std::nullopt;
  c.n_simple = i32;
  if (!reader.read_value(&i32)) return std::nullopt;
  c.n_early = i32;
  if (!reader.read_value(&i32)) return std::nullopt;
  c.n_edges = i32;
  if (!reader.read_value(&c.xi_star)) return std::nullopt;
  if (!reader.read_value(&c.xi_nee)) return std::nullopt;
  if (!reader.read_value(&c.xi_lp_min)) return std::nullopt;
  if (!reader.read_value(&c.xi_sim_min)) return std::nullopt;
  if (!reader.read_value(&c.improve_percent)) return std::nullopt;
  if (!reader.read_value(&c.delta_percent)) return std::nullopt;
  if (!reader.read_value(&u8)) return std::nullopt;
  c.all_exact = u8 != 0;
  if (!reader.read_value(&c.seconds)) return std::nullopt;
  if (!reader.read_value(&u64)) return std::nullopt;
  c.candidates_walked = static_cast<std::size_t>(u64);
  if (!reader.read_value(&u64)) return std::nullopt;
  c.sim_jobs = static_cast<std::size_t>(u64);
  if (!reader.read_value(&u64)) return std::nullopt;
  c.unique_simulations = static_cast<std::size_t>(u64);
  if (!reader.read_value(&u64)) return std::nullopt;
  c.exact_thetas = static_cast<std::size_t>(u64);
  if (!reader.read_value(&c.walk_seconds)) return std::nullopt;
  if (!reader.read_value(&c.sim_wait_seconds)) return std::nullopt;
  std::uint64_t rows = 0;
  if (!reader.read_value(&rows)) return std::nullopt;
  // Sanity cap: a corrupted count must not turn into a giant allocation.
  if (rows > payload.size()) return std::nullopt;
  c.candidates.reserve(static_cast<std::size_t>(rows));
  for (std::uint64_t r = 0; r < rows; ++r) {
    flow::CandidateRow row;
    if (!reader.read_value(&row.tau)) return std::nullopt;
    if (!reader.read_value(&row.theta_lp)) return std::nullopt;
    if (!reader.read_value(&row.theta_sim)) return std::nullopt;
    if (!reader.read_value(&row.err_percent)) return std::nullopt;
    if (!reader.read_value(&row.xi_lp)) return std::nullopt;
    if (!reader.read_value(&row.xi_sim)) return std::nullopt;
    if (!reader.read_value(&i32)) return std::nullopt;
    row.bubbles = i32;
    if (!reader.read_value(&u8)) return std::nullopt;
    row.exact = u8 != 0;
    c.candidates.push_back(row);
  }
  if (!reader.exhausted()) return std::nullopt;
  result.state = JobState::kDone;
  return result;
}

}  // namespace elrr::svc
