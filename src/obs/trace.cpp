#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "support/env.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace elrr::obs {

namespace {

constexpr std::size_t kHistBuckets = 64;
static_assert(kHistBuckets == detail::kSigHistBuckets,
              "signal-safe hist view and registry bucket counts diverged");

/// One thread's span ring. The owning thread is the only writer: it
/// fills the slot with plain stores, then publishes with a
/// release-store of head. Snapshots acquire-load head and copy; a slot
/// the owner is mid-way through overwriting can tear, so snapshots are
/// exact at quiescence and best-effort (bounded to the single in-flight
/// record) while the thread is still recording.
struct ThreadBuffer {
  std::vector<SpanRecord> ring;
  std::atomic<std::uint64_t> head{0};  ///< total spans ever published
  std::uint32_t tid = 0;               ///< 1-based track id
  char label[32] = {0};                ///< thread_name metadata ("" = none)
};

/// Log2-bucketed latency histogram: bucket b holds durations in
/// [2^b, 2^(b+1)) ns, except bucket 0 which also takes 0. The exact
/// extremes bound every percentile read off the buckets.
struct Hist {
  std::uint64_t buckets[kHistBuckets] = {0};
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = ~std::uint64_t{0};
  std::uint64_t max_ns = 0;
};

/// Leaked singleton (same LSan-safe pattern as the fail-point
/// registry): still reachable at exit, never destroyed, so spans
/// recorded from static-destruction contexts stay safe.
struct State {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, Hist> hists;
  std::string trace_path;
  std::size_t ring_capacity = 8192;
  std::uint32_t next_tid = 0;
  std::atomic<std::uint64_t> generation{0};
  bool atexit_installed = false;
};

State& state() {
  static State* s = new State();
  return *s;
}

/// Signal-safe registry mirror (see trace.hpp detail::SigCounterView):
/// fixed arrays appended under the registry mutex, read lock-free by
/// the crash handler. Sized well past the repo's site count; overflow
/// entries simply stay invisible to postmortems.
constexpr std::size_t kMaxSigViews = 256;
detail::SigCounterView g_sig_counters[kMaxSigViews];
std::atomic<std::size_t> g_sig_counter_count{0};
detail::SigHistView g_sig_hists[kMaxSigViews];
std::atomic<std::size_t> g_sig_hist_count{0};

struct TlsRef {
  std::shared_ptr<ThreadBuffer> buf;
  std::uint64_t generation = ~std::uint64_t{0};
};
thread_local TlsRef t_ref;
thread_local char t_label[32] = {0};

void copy_name(char (&dst)[44], const char* src) {
  std::size_t i = 0;
  for (; src[i] != '\0' && i + 1 < sizeof(dst); ++i) dst[i] = src[i];
  dst[i] = '\0';
}

/// The calling thread's buffer for the current generation, creating and
/// registering one on first use (or after a reset orphaned the old
/// one). The fast path is two relaxed/acquire loads.
ThreadBuffer* attach() {
  State& s = state();
  const std::uint64_t gen = s.generation.load(std::memory_order_acquire);
  if (t_ref.buf && t_ref.generation == gen) return t_ref.buf.get();
  auto buf = std::make_shared<ThreadBuffer>();
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    buf->ring.resize(s.ring_capacity);
    buf->tid = ++s.next_tid;
    std::memcpy(buf->label, t_label, sizeof(buf->label));
    s.buffers.push_back(buf);
    t_ref.generation = s.generation.load(std::memory_order_relaxed);
  }
  t_ref.buf = std::move(buf);
  return t_ref.buf.get();
}

std::size_t hist_bucket(std::int64_t dur_ns) {
  if (dur_ns <= 0) return 0;
  const std::size_t b =
      static_cast<std::size_t>(std::bit_width(
          static_cast<std::uint64_t>(dur_ns))) - 1;
  return b < kHistBuckets ? b : kHistBuckets - 1;
}

/// Caller holds state().mutex.
void feed_hist_locked(State& s, const char* name, std::int64_t dur_ns) {
  const auto [it, inserted] = s.hists.try_emplace(name);
  Hist& h = it->second;
  if (inserted) {
    const std::size_t n = g_sig_hist_count.load(std::memory_order_relaxed);
    if (n < kMaxSigViews) {
      g_sig_hists[n] = {it->first.c_str(), h.buckets, &h.count, &h.total_ns,
                        &h.max_ns};
      g_sig_hist_count.store(n + 1, std::memory_order_release);
    }
  }
  const std::uint64_t dur = static_cast<std::uint64_t>(dur_ns > 0 ? dur_ns : 0);
  ++h.buckets[hist_bucket(dur_ns)];
  ++h.count;
  h.total_ns += dur;
  h.min_ns = std::min(h.min_ns, dur);
  h.max_ns = std::max(h.max_ns, dur);
}

/// Percentile from the log2 buckets: walk to the bucket holding the
/// q-th rank, interpolate linearly inside its [2^b, 2^(b+1)) bracket,
/// and clamp to the observed [min, max] -- a landing bucket's upper edge
/// can lie far past the largest sample in it.
double hist_percentile_s(const Hist& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  double cum = 0.0;
  double ns = static_cast<double>(h.max_ns);
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    const double width = static_cast<double>(h.buckets[b]);
    if (cum + width >= rank) {
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
      const double hi = std::ldexp(1.0, static_cast<int>(b) + 1);
      const double frac =
          std::clamp((rank - cum) / width, 0.0, 1.0);
      ns = lo + frac * (hi - lo);
      break;
    }
    cum += width;
  }
  return std::clamp(ns, static_cast<double>(h.min_ns),
                    static_cast<double>(h.max_ns)) *
         1e-9;
}

void atexit_export() {
  State& s = state();
  std::string path;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    path = s.trace_path;
  }
  if (path.empty()) return;
  try {
    write_trace(path);
  } catch (...) {
    // Exit-path export is best effort; the run's results already went
    // wherever they were going.
  }
}

}  // namespace

namespace detail {

std::atomic<bool> g_armed{false};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void record_span_slow(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint64_t arg) {
  ThreadBuffer* buf = attach();
  const std::uint64_t h = buf->head.load(std::memory_order_relaxed);
  SpanRecord& slot = buf->ring[h % buf->ring.size()];
  copy_name(slot.name, name);
  slot.start_ns = start_ns;
  slot.end_ns = end_ns;
  slot.arg = arg;
  buf->head.store(h + 1, std::memory_order_release);
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  feed_hist_locked(s, name, end_ns - start_ns);
}

void count_slow(const char* name, std::uint64_t delta) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto [it, inserted] = s.counters.try_emplace(name, 0);
  it->second += delta;
  if (inserted) {
    const std::size_t n = g_sig_counter_count.load(std::memory_order_relaxed);
    if (n < kMaxSigViews) {
      g_sig_counters[n] = {it->first.c_str(), &it->second};
      g_sig_counter_count.store(n + 1, std::memory_order_release);
    }
  }
}

std::size_t sig_counters(const SigCounterView** out) {
  *out = g_sig_counters;
  return g_sig_counter_count.load(std::memory_order_acquire);
}

std::size_t sig_hists(const SigHistView** out) {
  *out = g_sig_hists;
  return g_sig_hist_count.load(std::memory_order_acquire);
}

}  // namespace detail

void set_thread_label(const char* label) {
  std::size_t i = 0;
  for (; label[i] != '\0' && i + 1 < sizeof(t_label); ++i) {
    t_label[i] = label[i];
  }
  t_label[i] = '\0';
  if (t_ref.buf) {
    State& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    std::memcpy(t_ref.buf->label, t_label, sizeof(t_ref.buf->label));
  }
}

void configure(const std::string& trace_path, std::size_t ring_capacity) {
  State& s = state();
  detail::g_armed.store(false, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    // Retract the signal-safe mirror before its pointees go away; the
    // crash handler sees either the old view or an empty one.
    g_sig_counter_count.store(0, std::memory_order_release);
    g_sig_hist_count.store(0, std::memory_order_release);
    s.generation.fetch_add(1, std::memory_order_acq_rel);
    s.buffers.clear();
    s.counters.clear();
    s.hists.clear();
    s.next_tid = 0;
    s.trace_path = trace_path;
    s.ring_capacity = ring_capacity;
  }
  detail::g_armed.store(!trace_path.empty(), std::memory_order_relaxed);
}

void configure_from_env() {
  const std::string path = env::str("ELRR_TRACE", "");
  const std::uint64_t cap =
      env::u64("ELRR_OBS_BUF", 8192, 16, std::uint64_t{1} << 24);
  configure(path, static_cast<std::size_t>(cap));
  if (!path.empty()) {
    State& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.atexit_installed) {
      s.atexit_installed = true;
      std::atexit(atexit_export);
    }
  }
}

void arm(bool on) { detail::g_armed.store(on, std::memory_order_relaxed); }

void reset() { configure("", state().ring_capacity); }

const std::string& trace_path() {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.trace_path;
}

std::size_t ring_capacity() {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.ring_capacity;
}

std::string expand_trace_path(const std::string& path) {
  std::string out;
  out.reserve(path.size());
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] == '%' && i + 1 < path.size() && path[i + 1] == 'p') {
      out += std::to_string(static_cast<long>(::getpid()));
      ++i;
    } else {
      out += path[i];
    }
  }
  return out;
}

std::vector<SpanRecord> snapshot_spans() {
  State& s = state();
  std::vector<SpanRecord> out;
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (const auto& buf : s.buffers) {
    const std::uint64_t cap = buf->ring.size();
    const std::uint64_t head = buf->head.load(std::memory_order_acquire);
    const std::uint64_t begin = head > cap ? head - cap : 0;
    for (std::uint64_t i = begin; i < head; ++i) {
      SpanRecord rec = buf->ring[i % cap];
      rec.tid = buf->tid;
      out.push_back(rec);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

std::uint64_t dropped_spans() {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  std::uint64_t dropped = 0;
  for (const auto& buf : s.buffers) {
    const std::uint64_t cap = buf->ring.size();
    const std::uint64_t head = buf->head.load(std::memory_order_acquire);
    if (head > cap) dropped += head - cap;
  }
  return dropped;
}

std::vector<PhaseSummary> histogram_summary() {
  State& s = state();
  std::vector<PhaseSummary> out;
  const std::lock_guard<std::mutex> lock(s.mutex);
  out.reserve(s.hists.size());
  for (const auto& [name, h] : s.hists) {
    PhaseSummary row;
    row.name = name;
    row.count = h.count;
    row.total_s = static_cast<double>(h.total_ns) * 1e-9;
    row.p50_s = hist_percentile_s(h, 0.50);
    row.p95_s = hist_percentile_s(h, 0.95);
    row.p99_s = hist_percentile_s(h, 0.99);
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<CounterValue> counters() {
  State& s = state();
  std::vector<CounterValue> out;
  const std::lock_guard<std::mutex> lock(s.mutex);
  out.reserve(s.counters.size());
  for (const auto& [name, value] : s.counters) {
    out.push_back(CounterValue{name, value});
  }
  return out;
}

std::string summary_json() {
  std::ostringstream os;
  char buf[320];
  os << "\"phases\": [";
  bool first = true;
  for (const PhaseSummary& row : histogram_summary()) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"count\": %llu, "
                  "\"total_s\": %.6f, \"p50_s\": %.9f, \"p95_s\": %.9f, "
                  "\"p99_s\": %.9f}",
                  first ? "" : ", ", json::escape(row.name).c_str(),
                  static_cast<unsigned long long>(row.count), row.total_s,
                  row.p50_s, row.p95_s, row.p99_s);
    os << buf;
    first = false;
  }
  os << "], \"counters\": {";
  first = true;
  for (const CounterValue& counter : counters()) {
    os << (first ? "" : ", ") << "\"" << json::escape(counter.name)
       << "\": " << counter.value;
    first = false;
  }
  os << "}, \"dropped_spans\": " << dropped_spans()
     << ", \"ring_capacity\": " << ring_capacity();
  return os.str();
}

void write_trace(const std::string& path) {
  const std::vector<SpanRecord> spans = snapshot_spans();

  // Track metadata + aggregate tail, under one lock.
  std::vector<std::pair<std::uint32_t, std::string>> threads;
  std::vector<CounterValue> counter_rows;
  {
    State& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    for (const auto& buf : s.buffers) {
      if (buf->label[0] != '\0') {
        threads.emplace_back(buf->tid, std::string(buf->label));
      }
    }
    for (const auto& [name, value] : s.counters) {
      counter_rows.push_back(CounterValue{name, value});
    }
  }
  const std::uint64_t dropped = dropped_spans();

  const std::uint32_t self_pid = static_cast<std::uint32_t>(::getpid());
  std::int64_t t0 = 0;
  for (const SpanRecord& rec : spans) {
    if (t0 == 0 || rec.start_ns < t0) t0 = rec.start_ns;
  }

  const std::string final_path = expand_trace_path(path);
  const std::string tmp_path = final_path + ".tmp";
  std::FILE* out = std::fopen(tmp_path.c_str(), "w");
  if (out == nullptr) {
    throw Error(elrr::detail::concat("obs: cannot open trace file for write: ",
                                     tmp_path));
  }
  std::fputs("{\n  \"traceEvents\": [", out);

  bool first = true;
  const auto sep = [&]() {
    std::fputs(first ? "\n    " : ",\n    ", out);
    first = false;
  };

  // Process/thread naming metadata.
  sep();
  std::fprintf(out,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %u, "
               "\"args\": {\"name\": \"elrr\"}}",
               self_pid);
  for (const auto& [tid, label] : threads) {
    sep();
    std::fprintf(out,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %u, "
                 "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                 self_pid, tid, json::escape(label).c_str());
  }

  for (const SpanRecord& rec : spans) {
    const double ts_us = static_cast<double>(rec.start_ns - t0) * 1e-3;
    const double dur_us =
        static_cast<double>(rec.end_ns - rec.start_ns) * 1e-3;
    sep();
    std::fprintf(out,
                 "{\"name\": \"%s\", \"cat\": \"elrr\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %u, \"tid\": %u",
                 json::escape(rec.name).c_str(), ts_us,
                 dur_us < 0.0 ? 0.0 : dur_us, self_pid, rec.tid);
    if (rec.arg != kNoArg) {
      std::fprintf(out, ", \"args\": {\"id\": %llu}",
                   static_cast<unsigned long long>(rec.arg));
    }
    std::fputs("}", out);
  }

  std::fputs("\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {",
             out);
  std::fprintf(out, "\n    \"dropped_spans\": %llu",
               static_cast<unsigned long long>(dropped));
  std::fprintf(out, ",\n    \"ring_capacity\": %zu", ring_capacity());
  for (const CounterValue& c : counter_rows) {
    std::fprintf(out, ",\n    \"%s\": %llu", json::escape(c.name).c_str(),
                 static_cast<unsigned long long>(c.value));
  }
  std::fputs("\n  }\n}\n", out);

  const bool write_ok = std::ferror(out) == 0;
  const bool close_ok = std::fclose(out) == 0;
  if (!write_ok || !close_ok) {
    std::remove(tmp_path.c_str());
    throw Error(
        elrr::detail::concat("obs: short write to trace file: ", tmp_path));
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    throw Error(elrr::detail::concat("obs: cannot move trace file into place: ",
                                     final_path));
  }
}

}  // namespace elrr::obs
