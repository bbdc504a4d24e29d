#include "obs/recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <vector>

#include "obs/trace.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace elrr::obs::rec {

namespace detail {
std::atomic<bool> g_rec_armed{false};
}  // namespace detail

namespace {

/// One journal slot. seq is the publish word: 0 = empty/in-progress,
/// h+1 = the record claimed at head position h is fully written. A
/// writer invalidates (seq=0), fills with plain stores, then
/// release-stores the final seq; readers accept a slot only when its
/// acquire-loaded seq matches the position they expect, so a slot a
/// writer is mid-way through filling is simply skipped.
struct EventRecord {
  std::atomic<std::uint64_t> seq{0};
  std::int64_t t_ns = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t tid = 0;
  char name[kEventNameCap] = {0};
};

/// The journal ring. head counts slots ever claimed (fetch_add, so the
/// claim is wait-free and per-slot exclusive); capacity never changes
/// for a live ring -- configure() swaps in a fresh Ring and retires the
/// old one into a still-reachable list, so a thread that loaded the old
/// pointer keeps writing into valid (ignored) memory.
struct Ring {
  std::vector<EventRecord> slots;
  std::atomic<std::uint64_t> head{0};
  explicit Ring(std::size_t capacity) : slots(capacity) {}
};

std::atomic<Ring*> g_ring{nullptr};
std::vector<Ring*>& retired_rings() {
  static std::vector<Ring*>* v = new std::vector<Ring*>();
  return *v;
}
std::size_t g_capacity = 4096;

/// In-flight identity slots: one per recording thread, claimed once for
/// the thread's lifetime (configure never un-claims, so a stale
/// thread-local index can never alias another thread's slot). The
/// fatal dump walks the claimed prefix and prints every active mark.
struct InflightSlot {
  std::atomic<bool> active{false};
  std::uint32_t tid = 0;
  std::uint64_t id = 0;
  char what[16] = {0};
};
constexpr std::size_t kInflightSlots = 64;
InflightSlot g_inflight[kInflightSlots];
std::atomic<std::size_t> g_inflight_claimed{0};
std::atomic<std::uint32_t> g_next_tid{0};
thread_local std::uint32_t t_rec_tid = 0;
thread_local std::size_t t_inflight_slot = ~std::size_t{0};

/// Fatal-handler plumbing, all pre-computed at configure time so the
/// handler itself only calls write(2)/fsync(2)/rename(2)/raise(2).
int g_fd = -1;
char g_tmp_path[512] = {0};
char g_final_path[512] = {0};
std::atomic<bool> g_dumped{false};
bool g_handlers_installed = false;
constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS};
struct sigaction g_old_sa[3];
std::terminate_handler g_old_terminate = nullptr;
std::string g_dir;
std::mutex g_configure_mutex;

std::uint32_t rec_tid() {
  if (t_rec_tid == 0) {
    t_rec_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  return t_rec_tid;
}

void copy_event_name(char (&dst)[kEventNameCap], const char* src) {
  std::size_t i = 0;
  for (; src[i] != '\0' && i + 1 < sizeof(dst); ++i) dst[i] = src[i];
  dst[i] = '\0';
}

void write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // best effort: a full disk cannot be helped from here
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// Line assembler for the fatal dump: plain char appends into a stack
/// buffer, flushed with one write(2) per line. No stdio, no allocation.
struct LineBuf {
  char buf[320];
  std::size_t len = 0;
  LineBuf& s(const char* str) {
    for (; *str != '\0' && len + 1 < sizeof(buf); ++str) buf[len++] = *str;
    return *this;
  }
  LineBuf& u(std::uint64_t v) {
    char digits[20];
    int n = 0;
    do {
      digits[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0 && len + 1 < sizeof(buf)) buf[len++] = digits[--n];
    return *this;
  }
  LineBuf& i(std::int64_t v) {
    if (v < 0) {
      s("-");
      return u(static_cast<std::uint64_t>(-(v + 1)) + 1);
    }
    return u(static_cast<std::uint64_t>(v));
  }
  void line(int fd) {
    if (len + 1 < sizeof(buf)) buf[len++] = '\n';
    write_all(fd, buf, len);
    len = 0;
  }
};

/// Integer upper bound (ns) of the log2 bucket holding the q-percent
/// rank, clamped to the largest sample: the handler cannot use the
/// floating-point interpolation the normal summary uses, so postmortem
/// percentiles are `<=` brackets, and like the summary's they never
/// exceed the observed max.
std::uint64_t hist_pct_le_ns(const std::uint64_t* buckets,
                             std::uint64_t count, std::uint64_t max_ns,
                             std::uint64_t q_num) {
  if (count == 0) return 0;
  const std::uint64_t rank = (q_num * count + 99) / 100;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < obs::detail::kSigHistBuckets; ++b) {
    cum += buckets[b];
    if (cum >= rank) {
      const std::uint64_t edge =
          b + 1 < 64 ? (std::uint64_t{1} << (b + 1)) : ~std::uint64_t{0};
      return edge < max_ns ? edge : max_ns;
    }
  }
  return max_ns;
}

/// The dump body. Async-signal-safe: static/stack data, write(2) only.
void dump_to_fd(int fd, const char* reason) {
  LineBuf lb;
  lb.s("ELRR-POSTMORTEM 1").line(fd);
  lb.s("reason: ").s(reason).line(fd);
  lb.s("pid: ").u(static_cast<std::uint64_t>(::getpid())).line(fd);

  Ring* ring = g_ring.load(std::memory_order_acquire);
  const std::uint64_t head =
      ring != nullptr ? ring->head.load(std::memory_order_acquire) : 0;
  const std::uint64_t cap = ring != nullptr ? ring->slots.size() : 0;
  const std::uint64_t dropped = head > cap ? head - cap : 0;
  lb.s("events_recorded: ").u(head < cap ? head : cap).line(fd);
  lb.s("events_dropped: ").u(dropped).line(fd);

  const std::size_t claimed = g_inflight_claimed.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < claimed && i < kInflightSlots; ++i) {
    const InflightSlot& slot = g_inflight[i];
    if (!slot.active.load(std::memory_order_acquire)) continue;
    lb.s("inflight: tid=").u(slot.tid).s(" ").s(slot.what).s(" ").u(slot.id);
    lb.line(fd);
  }

  if (ring != nullptr) {
    const std::uint64_t begin = head > cap ? head - cap : 0;
    for (std::uint64_t pos = begin; pos < head; ++pos) {
      const EventRecord& slot = ring->slots[pos % cap];
      if (slot.seq.load(std::memory_order_acquire) != pos + 1) continue;
      lb.s("event: seq=").u(pos + 1).s(" t_ns=").i(slot.t_ns);
      lb.s(" tid=").u(slot.tid).s(" name=").s(slot.name);
      lb.s(" a=").u(slot.a).s(" b=").u(slot.b).line(fd);
    }
  }

  const obs::detail::SigCounterView* counter_views = nullptr;
  const std::size_t n_counters = obs::detail::sig_counters(&counter_views);
  for (std::size_t i = 0; i < n_counters; ++i) {
    lb.s("counter: ").s(counter_views[i].name).s(" ");
    lb.u(*counter_views[i].value).line(fd);
  }
  const obs::detail::SigHistView* hist_views = nullptr;
  const std::size_t n_hists = obs::detail::sig_hists(&hist_views);
  for (std::size_t i = 0; i < n_hists; ++i) {
    const obs::detail::SigHistView& h = hist_views[i];
    const std::uint64_t count = *h.count;
    const std::uint64_t max_ns = *h.max_ns;
    lb.s("hist: ").s(h.name).s(" count=").u(count);
    lb.s(" total_ns=").u(*h.total_ns);
    lb.s(" p50_le_ns=").u(hist_pct_le_ns(h.buckets, count, max_ns, 50));
    lb.s(" p95_le_ns=").u(hist_pct_le_ns(h.buckets, count, max_ns, 95));
    lb.s(" p99_le_ns=").u(hist_pct_le_ns(h.buckets, count, max_ns, 99));
    lb.s(" max_ns=").u(max_ns);
    lb.line(fd);
  }
  lb.s("end").line(fd);
}

/// SA_RESETHAND put the default disposition back before this handler
/// ran, so after the dump a plain raise() -- delivered when the handler
/// returns -- kills the process by the original signal. The process's
/// parent (a shell, ctest, waitpid) keeps seeing "killed by signal N",
/// postmortem or not.
void fatal_signal_handler(int sig) {
  const char* reason = sig == SIGSEGV   ? "SIGSEGV"
                       : sig == SIGABRT ? "SIGABRT"
                       : sig == SIGBUS  ? "SIGBUS"
                                        : "fatal signal";
  write_postmortem(reason);
  ::raise(sig);
}

void terminate_hook() {
  write_postmortem("terminate");
  // abort() raises SIGABRT; our handler sees the dump already done and
  // just re-delivers, so the process still dies the std::terminate way.
  std::abort();
}

/// Clean exits must not litter ELRR_POSTMORTEM_DIR: the pre-opened tmp
/// file is unlinked at normal process exit when no dump consumed it (a
/// dump renames it to the final path first; a fatal signal never
/// reaches atexit at all). Registered once, reads the live path, so
/// reconfigures are honored.
void unlink_tmp_at_exit() {
  if (!g_dumped.load(std::memory_order_relaxed) && g_tmp_path[0] != '\0') {
    ::unlink(g_tmp_path);
  }
}

/// Tears down the armed state (fd, handlers, hook). Caller holds
/// g_configure_mutex and has already disarmed.
void disarm_locked() {
  if (g_fd >= 0) {
    ::close(g_fd);
    ::unlink(g_tmp_path);
    g_fd = -1;
  }
  if (g_handlers_installed) {
    for (std::size_t i = 0; i < 3; ++i) {
      ::sigaction(kFatalSignals[i], &g_old_sa[i], nullptr);
    }
    std::set_terminate(g_old_terminate);
    g_old_terminate = nullptr;
    g_handlers_installed = false;
  }
  g_tmp_path[0] = '\0';
  g_final_path[0] = '\0';
  g_dir.clear();
  g_dumped.store(false, std::memory_order_relaxed);
}

}  // namespace

namespace detail {

void event_slow(const char* name, std::uint64_t a, std::uint64_t b) {
  Ring* ring = g_ring.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  const std::uint64_t h = ring->head.fetch_add(1, std::memory_order_relaxed);
  EventRecord& slot = ring->slots[h % ring->slots.size()];
  slot.seq.store(0, std::memory_order_release);
  slot.t_ns = obs::detail::now_ns();
  slot.a = a;
  slot.b = b;
  slot.tid = rec_tid();
  copy_event_name(slot.name, name);
  slot.seq.store(h + 1, std::memory_order_release);
}

void set_inflight_slow(const char* what, std::uint64_t id) {
  if (t_inflight_slot == ~std::size_t{0}) {
    const std::size_t claimed =
        g_inflight_claimed.fetch_add(1, std::memory_order_acq_rel);
    if (claimed >= kInflightSlots) return;  // out of slots: mark invisible
    t_inflight_slot = claimed;
  }
  if (t_inflight_slot >= kInflightSlots) return;
  InflightSlot& slot = g_inflight[t_inflight_slot];
  slot.active.store(false, std::memory_order_release);
  slot.tid = rec_tid();
  slot.id = id;
  std::size_t i = 0;
  for (; what[i] != '\0' && i + 1 < sizeof(slot.what); ++i) {
    slot.what[i] = what[i];
  }
  slot.what[i] = '\0';
  slot.active.store(true, std::memory_order_release);
}

void clear_inflight_slow() {
  if (t_inflight_slot < kInflightSlots) {
    g_inflight[t_inflight_slot].active.store(false, std::memory_order_release);
  }
}

}  // namespace detail

void configure(const std::string& dir, std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(g_configure_mutex);
  detail::g_rec_armed.store(false, std::memory_order_relaxed);
  disarm_locked();

  // Swap the journal out from under any in-flight writers: they keep
  // writing into the retired (still-reachable, ignored) ring.
  Ring* old = g_ring.exchange(nullptr, std::memory_order_acq_rel);
  if (old != nullptr) retired_rings().push_back(old);
  for (InflightSlot& slot : g_inflight) {
    slot.active.store(false, std::memory_order_release);
  }
  g_capacity = capacity;
  if (dir.empty()) return;

  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    throw InvalidInputError(elrr::detail::concat(
        "ELRR_POSTMORTEM_DIR: cannot create directory ", dir, ": ",
        std::strerror(errno)));
  }
  const long pid = static_cast<long>(::getpid());
  const int fn = std::snprintf(g_final_path, sizeof(g_final_path),
                               "%s/postmortem-%ld.txt", dir.c_str(), pid);
  const int tn = std::snprintf(g_tmp_path, sizeof(g_tmp_path),
                               "%s/postmortem-%ld.txt.tmp", dir.c_str(), pid);
  if (fn <= 0 || tn <= 0 ||
      static_cast<std::size_t>(tn) >= sizeof(g_tmp_path)) {
    g_tmp_path[0] = g_final_path[0] = '\0';
    throw InvalidInputError(
        elrr::detail::concat("ELRR_POSTMORTEM_DIR: path too long: ", dir));
  }
  g_fd = ::open(g_tmp_path, O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (g_fd < 0) {
    throw InvalidInputError(elrr::detail::concat(
        "ELRR_POSTMORTEM_DIR: cannot open ", g_tmp_path, ": ",
        std::strerror(errno)));
  }
  g_dir = dir;
  static const bool tmp_cleanup_registered = [] {
    std::atexit(unlink_tmp_at_exit);
    return true;
  }();
  (void)tmp_cleanup_registered;

  g_ring.store(new Ring(capacity), std::memory_order_release);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = fatal_signal_handler;
  sigemptyset(&sa.sa_mask);
  // SA_RESETHAND: the default disposition is back before the handler
  // runs, so the post-dump raise() needs no sigaction from within the
  // handler and the process dies by the original signal.
  sa.sa_flags = SA_RESETHAND;
  for (std::size_t i = 0; i < 3; ++i) {
    ::sigaction(kFatalSignals[i], &sa, &g_old_sa[i]);
  }
  g_old_terminate = std::set_terminate(terminate_hook);
  g_handlers_installed = true;

  detail::g_rec_armed.store(true, std::memory_order_relaxed);
}

void configure_from_env() {
  // The capacity is validated even when the recorder stays disarmed:
  // a malformed ELRR_POSTMORTEM_BUF is an error, not a silent default
  // (same taxonomy as ELRR_OBS_BUF).
  const std::uint64_t cap =
      env::u64("ELRR_POSTMORTEM_BUF", 4096, 16, std::uint64_t{1} << 24);
  const std::string dir = env::str("ELRR_POSTMORTEM_DIR", "");
  configure(dir, static_cast<std::size_t>(cap));
}

void reset() { configure("", g_capacity); }

const std::string& postmortem_dir() {
  return g_dir;
}

std::string postmortem_path() {
  return g_final_path[0] == '\0' ? std::string() : std::string(g_final_path);
}

std::size_t ring_capacity() { return g_capacity; }

std::uint64_t dropped_events() {
  Ring* ring = g_ring.load(std::memory_order_acquire);
  if (ring == nullptr) return 0;
  const std::uint64_t head = ring->head.load(std::memory_order_acquire);
  const std::uint64_t cap = ring->slots.size();
  return head > cap ? head - cap : 0;
}

bool write_postmortem(const char* reason) {
  if (g_fd < 0) return false;
  if (g_dumped.exchange(true)) return false;
  dump_to_fd(g_fd, reason);
  ::fsync(g_fd);
  // rename(2) is async-signal-safe: the postmortem is published
  // atomically even from the depths of a SIGSEGV handler. A file at
  // the final path is always a complete dump.
  ::rename(g_tmp_path, g_final_path);
  return true;
}

std::vector<EventView> snapshot_events() {
  std::vector<EventView> out;
  Ring* ring = g_ring.load(std::memory_order_acquire);
  if (ring == nullptr) return out;
  const std::uint64_t head = ring->head.load(std::memory_order_acquire);
  const std::uint64_t cap = ring->slots.size();
  const std::uint64_t begin = head > cap ? head - cap : 0;
  for (std::uint64_t pos = begin; pos < head; ++pos) {
    const EventRecord& slot = ring->slots[pos % cap];
    if (slot.seq.load(std::memory_order_acquire) != pos + 1) continue;
    EventView view;
    view.seq = pos + 1;
    view.t_ns = slot.t_ns;
    view.a = slot.a;
    view.b = slot.b;
    view.tid = slot.tid;
    view.name = slot.name;
    out.push_back(std::move(view));
  }
  return out;
}

}  // namespace elrr::obs::rec
