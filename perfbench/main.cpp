// Table-2 service benchmark: runs one workload's generated batch
// through the public svc::Scheduler API -- the path `elrr batch` takes --
// for a fixed number of wall-clock seconds, checks every output, and
// prints one JSON report line (metrics, work counters, and the values
// that must repeat exactly across runs of one seed) for perfbench/run.py.
//
//   perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --workdir <dir>
//
// --trace 0 measures the end-to-end metrics with tracing disarmed.
// --trace 1 measures the per-layer metrics: untraced batches first (the
// overhead baseline), then batches with the obs layer armed, then timed
// calls of the layers that carry no span (heur_eff_cyc and
// throughput_upper_bound). Every batch starts from a fresh Scheduler, so
// caches start empty. Nothing under src/ is modified to measure it.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench89/generator.hpp"
#include "core/tgmg.hpp"
#include "flow/circuit_flow.hpp"
#include "heur/heuristic.hpp"
#include "io/rrg_format.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "svc/manifest.hpp"
#include "svc/scheduler.hpp"

namespace {

using namespace elrr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ percentiles
// The one percentile definition of the benchmark: nearest rank over raw
// samples. A nearest-rank percentile is always one of the samples, so it
// never exceeds the observed maximum (the obs histograms interpolate
// inside log2 buckets and can; they are never used here).

/// The rank-th smallest sample (1-based, clamped to the sample count).
double ranked(std::vector<double> samples, std::size_t rank) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double percentile(const std::vector<double>& samples, double p) {
  const double n = static_cast<double>(samples.size());
  return ranked(samples, static_cast<std::size_t>(std::ceil(p * n)));
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 0.5);
}

/// The latency tail of one batch: the highest nearest-rank percentile
/// with at least kTailBeyond of the batch's jobs above it, i.e. the rank
/// with exactly that many larger samples. The rank depends only on the
/// batch's job count, never on how many batches fit in --seconds. A batch
/// of 2 * kTailBeyond jobs or fewer has no such percentile above its
/// median; there the tail is the batch's slowest job.
constexpr std::size_t kTailBeyond = 10;

std::size_t tail_rank(std::size_t jobs) {
  return jobs > 2 * kTailBeyond ? jobs - kTailBeyond : jobs;
}

/// Untraced batches of a --trace 0 run, whatever --seconds says: the
/// exact-repeat checks need a pair (a --trace 1 run pairs its untraced
/// batch with its traced one).
constexpr std::size_t kMinBatches = 2;
/// Set-ups timed on their own for setup_s (a few ms each) after every
/// untraced batch: host speed drifts within a run, and samples spread over
/// the run see the same host as the batches, where one burst of samples is
/// a snapshot of a moment.
constexpr std::size_t kSetupsPerBatch = 20;
/// Per-thread span ring of a traced batch (obs::configure caps it at
/// 2^24); no workload comes near it, and a drop fails the run.
constexpr std::size_t kTraceRing = std::size_t{1} << 16;

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double value : values) total += value;
  return total;
}

/// Self-test of the percentile helpers on heavy-tailed samples: every
/// percentile is one of the samples and none exceeds the maximum; the
/// tail has exactly kTailBeyond larger samples (none in a small batch).
void selftest_percentiles() {
  std::uint64_t state = 0x2545F4914F6CDD1DULL;
  for (std::size_t n = 1; n <= 300; n += 7) {
    std::vector<double> samples;
    for (std::size_t i = 0; i < n; ++i) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      const double u = static_cast<double>(state >> 11) * 0x1.0p-53;
      samples.push_back(std::exp(12.0 * u));  // spans five decades
    }
    const double max = *std::max_element(samples.begin(), samples.end());
    for (double p = 0.01; p <= 1.0; p += 0.01) {
      const double value = percentile(samples, p);
      if (value > max ||
          std::find(samples.begin(), samples.end(), value) == samples.end()) {
        throw std::logic_error("percentile self-test failed");
      }
    }
    const double tail = ranked(samples, tail_rank(n));
    const auto larger = std::count_if(samples.begin(), samples.end(),
                                      [&](double v) { return v > tail; });
    const std::size_t beyond = n > 2 * kTailBeyond ? kTailBeyond : 0;
    if (tail > max || static_cast<std::size_t>(larger) != beyond) {
      throw std::logic_error("tail percentile self-test failed");
    }
  }
}

// -------------------------------------------------------------- workloads

std::uint64_t splitmix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Workload {
  std::string name;
  std::string manifest;  ///< JSONL, exactly what `elrr batch` would read
  /// exact_walk: every MIN_EFF_CYC job must prove every MILP optimal.
  bool require_exact = false;
  /// budget_walk: MILPs stop on a wall-clock budget, so the incumbent
  /// (and with it the quality columns) may depend on host load.
  bool wall_clock_budget = false;
  /// How many of the workload's circuits the heur/LP layer probes time.
  std::size_t probe_circuits = 0;
  /// heur_walk: an exact-MILP ceiling of 0 edges (as
  /// ELRR_EXACT_MAX_EDGES=0 would set), so every job takes the
  /// heuristic-only path whatever its size.
  bool heuristic_only = false;
};

/// The circuits of every workload come from this fixed suite seed; the
/// run's --seed draws each job's simulation seed. The walk's work swings
/// with a circuit's annotation (seed-drawn circuits gave a cpu_s quartile
/// spread of 21% on exact_walk and 25% on heuristic-only 151-154-edge
/// circuits over 5 seeds), which would bury a 10% change under input
/// noise.
constexpr std::uint64_t kSuiteSeed = 2009;

std::string indexed(const char* prefix, int index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%d", prefix, index);
  return buf;
}

/// Writes each job's circuit as an `.rrg` input and its manifest line.
class WorkloadWriter {
 public:
  WorkloadWriter(std::filesystem::path dir, std::uint64_t seed,
                  std::string knobs)
      : dir_(std::move(dir)), seed_(seed), knobs_(std::move(knobs)) {}

  /// The manifest knobs of the jobs added from here on.
  void set_knobs(std::string knobs) { knobs_ = std::move(knobs); }

  /// One job on a generated circuit of `shape`'s size, named `name`.
  void add(const bench89::CircuitSpec& shape, const std::string& name) {
    const Rrg rrg =
        bench89::make_table2_rrg(shape, splitmix(kSuiteSeed, jobs_));
    const std::filesystem::path path = dir_ / (name + ".rrg");
    io::save_text_file(path.string(), io::write_rrg(rrg, name));
    const std::uint64_t sim_seed = splitmix(seed_, jobs_) % 1000000007;
    manifest_ += "{\"input\": \"" + path.string() + "\", \"name\": \"" +
                 name + "\", \"seed\": " + std::to_string(sim_seed) + ", " +
                 knobs_ + "}\n";
    ++jobs_;
  }
  /// One job on a Table-2 circuit (the paper's statistics), annotated
  /// anew for every job.
  void add_table2(const char* circuit) {
    add(bench89::spec_by_name(circuit),
        circuit + indexed("_", static_cast<int>(jobs_)));
  }
  const std::string& manifest() const { return manifest_; }

 private:
  std::filesystem::path dir_;
  std::uint64_t seed_;
  std::string knobs_;
  std::string manifest_;
  std::uint64_t jobs_ = 0;
};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::filesystem::path& dir) {
  Workload w;
  w.name = name;
  if (name == "exact_walk") {
    // Paper epsilon, a MILP budget no solve reaches: every MILP proves
    // optimality, so wall time is solver speed (B&B + warm re-solves).
    // Many small circuits: a single 12-14-edge circuit can take from
    // 0.3 s to several seconds. The score jobs carry the solo-simulation
    // oracle check.
    WorkloadWriter b(dir, seed,
                      "\"epsilon\": 0.01, \"timeout\": 600, \"cycles\": 5000");
    const char* tiny[] = {"s208", "s420", "s838"};
    for (int i = 0; i < 48; ++i) b.add_table2(tiny[i % 3]);
    for (int i = 0; i < 6; ++i) b.add({"x11", 7, 2, 11}, indexed("x11_", i));
    b.set_knobs("\"mode\": \"score\", \"cycles\": 5000");
    for (int i = 0; i < 6; ++i) b.add({"x11", 7, 2, 11}, indexed("score_", i));
    w.manifest = b.manifest();
    w.require_exact = true;
    w.probe_circuits = 6;
  } else if (name == "budget_walk") {
    // Every MILP here stops on its budget: a faster solver shows up as
    // exact_share and quality, not only as makespan.
    WorkloadWriter b(dir, seed, "\"timeout\": 0.05, \"cycles\": 5000");
    for (int i = 0; i < 10; ++i) b.add_table2("s27");
    w.manifest = b.manifest();
    w.wall_clock_budget = true;
    w.probe_circuits = 4;
  } else if (name == "heur_walk") {
    // The heuristic-only path the flow takes past its 150-edge exact
    // ceiling, forced on 70-73-edge circuits: the cold throughput LPs
    // inside src/heur do the work and the MILP branch & bound does none.
    // Four 151-154-edge circuits gave makespan spreads of 21-26% over ten
    // seeds (their dense LPs feel the host most); these give 10-16%.
    WorkloadWriter b(dir, seed, "\"cycles\": 5000");
    for (int i = 0; i < 24; ++i) b.add({"h", 50, 4, 70 + i % 4}, indexed("h", i));
    w.manifest = b.manifest();
    w.probe_circuits = 4;
    w.heuristic_only = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ------------------------------------------------------------ one batch

struct BatchRun {
  double materialize_s = 0.0;
  double scheduler_s = 0.0;
  double makespan_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latencies;
  std::vector<svc::JobSpec> specs;  ///< the batch's jobs, materialized
  std::vector<svc::JobResult> results;
  svc::SchedulerStats stats;
  sim::SimCacheStats fleet_cache;
};

/// The load shape: 2 walk workers, 2 fleet threads, no proc workers, no
/// disk cache, submission paused so pick order depends only on the
/// manifest. run.py starts this program with every ELRR_* variable
/// removed, so no library default is overridden from the environment.
svc::SchedulerOptions scheduler_options() {
  svc::SchedulerOptions options;
  options.workers = 2;
  options.sim_threads = 2;
  options.start_paused = true;
  return options;
}

/// Parses and materializes the manifest: generates the named circuits,
/// loads the `.rrg` inputs, layers each line's knobs on the defaults.
std::vector<svc::JobSpec> materialize_all(const Workload& workload) {
  flow::FlowOptions base;
  base.sim_threads = 2;
  if (workload.heuristic_only) base.exact_max_edges = 0;
  std::vector<svc::JobSpec> specs;
  for (const svc::ManifestEntry& entry :
       svc::parse_manifest(workload.manifest)) {
    specs.push_back(svc::materialize(entry, base));
  }
  return specs;
}

/// setup_s on its own: materialize the manifest, construct the Scheduler.
double measure_setup(const Workload& workload) {
  const Clock::time_point start = Clock::now();
  const std::vector<svc::JobSpec> specs = materialize_all(workload);
  const svc::Scheduler scheduler(scheduler_options());
  return seconds_since(start);
}

BatchRun run_batch(const Workload& workload) {
  BatchRun run;
  Clock::time_point start = Clock::now();
  run.specs = materialize_all(workload);
  run.materialize_s = seconds_since(start);
  start = Clock::now();
  svc::Scheduler scheduler(scheduler_options());
  run.scheduler_s = seconds_since(start);

  const std::size_t total = run.specs.size();
  run.results.resize(total);
  std::vector<double> submitted_at(total, 0.0);
  std::vector<double> done_at(total, 0.0);

  const double cpu_start = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  {
    // Every job is submitted while dispatch is paused; then one waiter
    // per job stamps its terminal time the moment wait() returns (blocked
    // waiters cost nothing while the batch runs).
    std::vector<svc::JobId> ids;
    for (std::size_t i = 0; i < total; ++i) {
      submitted_at[i] = seconds_since(t0);
      ids.push_back(scheduler.submit(run.specs[i]));
    }
    std::vector<std::jthread> waiters;  // joined on every exit path
    try {
      for (std::size_t i = 0; i < total; ++i) {
        waiters.emplace_back([&, id = ids[i], slot = i] {
          run.results[slot] = scheduler.wait(id);
          done_at[slot] = seconds_since(t0);
        });
      }
    } catch (...) {
      scheduler.resume();  // lets the waiters already started finish
      throw;
    }
    scheduler.resume();
  }
  run.makespan_s = *std::max_element(done_at.begin(), done_at.end());
  run.cpu_s = cpu_seconds() - cpu_start;
  for (std::size_t i = 0; i < total; ++i) {
    run.latencies.push_back(done_at[i] - submitted_at[i]);
  }
  run.stats = scheduler.stats();
  run.fleet_cache = scheduler.fleet().cache_stats();
  return run;
}

// ------------------------------------------------- outputs and counters

std::string fmt(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

bool job_ok(const svc::JobResult& result) {
  return result.state == svc::JobState::kDone && !result.degraded &&
         result.error.empty();
}

/// The quality columns and thetas of every job, rendered exactly.
std::string quality_digest(const BatchRun& run) {
  std::string digest;
  for (const svc::JobResult& r : run.results) {
    digest += r.name + " " + svc::to_string(r.state) + " ";
    if (r.mode == svc::JobMode::kScoreOnly ||
        r.mode == svc::JobMode::kMinCyc) {
      digest += fmt(r.tau) + " " + fmt(r.theta_sim) + " " + fmt(r.xi_sim);
    } else {
      const flow::CircuitResult& c = r.circuit;
      digest += fmt(c.xi_nee) + " " + fmt(c.xi_lp_min) + " " +
                fmt(c.xi_sim_min) + " " + fmt(c.improve_percent) + " " +
                (c.all_exact ? "exact" : "inexact");
      for (const flow::CandidateRow& row : c.candidates) {
        digest += ' ';
        digest += fmt(row.tau);
        digest += '/';
        digest += fmt(row.theta_sim);
      }
    }
    digest += "\n";
  }
  return digest;
}

/// Exact work counters of one batch; they must repeat across batches of
/// one seed. The MILP numbers come from the jobs' MilpSession stats,
/// which cover the early-evaluation walk only: the NEE baseline walk's
/// solves are missing from them (they do show in the milp.solve spans).
struct WorkCounters {
  std::int64_t bb_nodes = 0;
  std::int64_t lp_iterations = 0;
  std::int64_t warm_fallbacks = 0;
  std::uint64_t unique_simulations = 0;
  std::uint64_t simulated_cycles = 0;

  bool operator==(const WorkCounters&) const = default;
};

WorkCounters work_counters(const BatchRun& run) {
  WorkCounters counters;
  for (const svc::JobResult& r : run.results) {
    counters.bb_nodes += r.circuit.milp.nodes;
    counters.lp_iterations += r.circuit.milp.lp_iterations;
    counters.warm_fallbacks += r.circuit.milp.warm_fallbacks;
    counters.unique_simulations += r.stats.unique_simulations;
  }
  // Every fresh fleet simulation runs `runs` replications of warmup +
  // measured cycles under the flow's scoring options; all jobs of a
  // workload share them.
  const sim::SimOptions sopt = flow::scoring_options(run.specs.front().flow);
  counters.simulated_cycles = run.fleet_cache.misses * sopt.runs *
                              (sopt.warmup_cycles + sopt.measure_cycles);
  return counters;
}

// --------------------------------------------------------- traced layers

struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

double span_seconds(const obs::SpanRecord& span) {
  return 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
}

bool is_job_span(const obs::SpanRecord& span) {
  return std::strncmp(span.name, "job.", 4) == 0;
}

/// Per-layer numbers read from one traced batch's spans.
struct SpanLayers {
  std::vector<double> queue_waits, milp_solves, slices;
  double walk_step_s = 0.0;
  double milp_in_walk_s = 0.0;
  double attempt_s = 0.0;
  double untraced_s = 0.0;
};

SpanLayers read_spans(const std::vector<obs::SpanRecord>& spans) {
  SpanLayers layers;
  std::map<std::uint32_t, std::vector<const obs::SpanRecord*>> by_thread;
  for (const obs::SpanRecord& span : spans) {
    by_thread[span.tid].push_back(&span);
    const std::string name = span.name;
    if (name == "job.queued") layers.queue_waits.push_back(span_seconds(span));
    if (name == "milp.solve") layers.milp_solves.push_back(span_seconds(span));
    if (name == "fleet.slice") layers.slices.push_back(span_seconds(span));
    if (name == "walk.step") layers.walk_step_s += span_seconds(span);
  }
  for (const auto& [tid, thread_spans] : by_thread) {
    for (const obs::SpanRecord* outer : thread_spans) {
      const std::string name = outer->name;
      if (name == "walk.step") {
        for (const obs::SpanRecord* inner : thread_spans) {
          if (std::strcmp(inner->name, "milp.solve") == 0 &&
              inner->start_ns >= outer->start_ns &&
              inner->end_ns <= outer->end_ns) {
            layers.milp_in_walk_s += span_seconds(*inner);
          }
        }
      }
      if (name != "job.attempt") continue;
      // Job time under no span: the attempt minus the union of the
      // non-job spans its thread recorded inside it.
      std::vector<Interval> covered;
      for (const obs::SpanRecord* inner : thread_spans) {
        if (is_job_span(*inner) || inner->end_ns <= outer->start_ns ||
            inner->start_ns >= outer->end_ns) {
          continue;
        }
        covered.push_back({std::max(inner->start_ns, outer->start_ns),
                           std::min(inner->end_ns, outer->end_ns)});
      }
      std::sort(covered.begin(), covered.end(),
                [](const Interval& a, const Interval& b) {
                  return a.start < b.start;
                });
      std::int64_t union_ns = 0;
      std::int64_t reach = outer->start_ns;
      for (const Interval& iv : covered) {
        const std::int64_t from = std::max(iv.start, reach);
        if (iv.end > from) {
          union_ns += iv.end - from;
          reach = iv.end;
        }
      }
      const double attempt = span_seconds(*outer);
      layers.attempt_s += attempt;
      layers.untraced_s += attempt - 1e-9 * static_cast<double>(union_ns);
    }
  }
  return layers;
}

/// Timed calls of the layers that record no span: the heuristic (with
/// fixed options, independent of the flow's size-scaled ones) and the
/// throughput LP bound it evaluates.
struct LayerProbe {
  double heur_s = 0.0;
  std::int64_t heur_lp_evals = 0;
  double throughput_lp_ms = 0.0;
};

HeuristicOptions probe_heuristic_options() {
  HeuristicOptions options;
  options.max_bubble_rounds = 32;
  options.max_polish_rounds = 1;
  options.max_lp_evals = 80;
  options.max_edges_per_round = 8;
  return options;
}

/// Probes the `circuits` smallest circuits of the workload (by edge
/// count, so the large-circuit workloads stay inside their budget).
LayerProbe probe_layers(const std::vector<svc::JobSpec>& specs,
                        std::size_t circuits) {
  std::vector<const Rrg*> order;
  for (const svc::JobSpec& spec : specs) order.push_back(&spec.rrg);
  std::stable_sort(order.begin(), order.end(), [](const Rrg* a, const Rrg* b) {
    return a->num_edges() < b->num_edges();
  });
  order.resize(std::min(circuits, order.size()));
  LayerProbe probe;
  std::vector<double> lp_ms;
  for (const Rrg* rrg : order) {
    Clock::time_point start = Clock::now();
    const HeuristicResult heur = heur_eff_cyc(*rrg, probe_heuristic_options());
    probe.heur_s += seconds_since(start);
    probe.heur_lp_evals += heur.lp_evals;
    // Repeat the LP until a call's time is resolved (>= 20 ms in all).
    std::size_t calls = 0;
    start = Clock::now();
    do {
      (void)throughput_upper_bound(*rrg);
      ++calls;
    } while (seconds_since(start) < 0.02);
    lp_ms.push_back(1e3 * seconds_since(start) / static_cast<double>(calls));
  }
  probe.throughput_lp_ms = lp_ms.empty() ? 0.0 : sum(lp_ms) / lp_ms.size();
  return probe;
}

// ---------------------------------------------------------------- report

class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_ += (metrics_.empty() ? "" : ", ") + quote(name) +
                ": {\"value\": " + fmt(value) + ", \"unit\": " + quote(unit) +
                "}";
  }
  void counter(const std::string& name, double value) {
    counters_ += (counters_.empty() ? "" : ", ") + quote(name) + ": " +
                 fmt(value);
  }
  /// A value that must repeat exactly across runs of one workload and
  /// seed on one host; run.py compares these and nothing else.
  void exact(const std::string& name, const std::string& value) {
    exact_ += (exact_.empty() ? "" : ", ") + quote(name) + ": " +
              quote(value);
  }
  void error(const std::string& message) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", message.c_str());
    errors_ += (errors_.empty() ? "" : ", ") + quote(message);
  }
  bool ok() const { return errors_.empty(); }

  std::string json(const std::string& workload, std::uint64_t seed,
                   int trace, std::size_t attempted, std::size_t failed,
                   std::size_t batches) const {
    std::ostringstream out;
    out << "{\"workload\": " << quote(workload) << ", \"seed\": " << seed
        << ", \"trace\": " << trace << ", \"correct\": "
        << (ok() ? "true" : "false") << ", \"errors\": [" << errors_
        << "], \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"batches\": " << batches << ", \"metrics\": {" << metrics_
        << "}, \"counters\": {" << counters_ << "}, \"exact\": {"
        << exact_ << "}, \"build\": {\"compiler\": "
        << quote(ELRR_BENCH_CXX_ID) << ", \"build_type\": "
        << quote(ELRR_BENCH_BUILD_TYPE) << ", \"native\": "
        << (ELRR_BENCH_NATIVE ? "true" : "false") << "}}";
    return out.str();
  }

 private:
  static std::string quote(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else if (static_cast<unsigned char>(c) >= 0x20) {
        out += c;
      }
    }
    return out + "\"";
  }

  std::string metrics_, counters_, exact_, errors_;
};

/// A hex FNV-1a of the quality digest, compared across runs of one seed.
std::string digest_hash(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string workdir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    std::size_t used = 0;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value, &used);
      have_seed = used == value.size();
    } else if (key == "--seconds") {
      args.seconds = std::stod(value, &used);
      have_seconds = used == value.size() && args.seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1" ? 1 : 0;
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || args.workdir.empty() ||
      !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "usage: perfbench --workload W --seed N --seconds S "
        "--trace 0|1 --workdir DIR");
  }
  return args;
}

int run(const Args& args) {
  selftest_percentiles();
  const Workload workload =
      make_workload(args.workload, args.seed, args.workdir);
  const Clock::time_point run_start = Clock::now();
  Report report;

  // Untraced batches: all of a --trace 0 run, the first share of a
  // --trace 1 run (its overhead baseline). A new batch starts only while
  // it is predicted to end inside the budget (by the slowest batch so
  // far).
  const auto room_for_batch = [&](const std::vector<BatchRun>& done,
                                  double budget) {
    double slowest = 0.0;
    for (const BatchRun& b : done) slowest = std::max(slowest, b.makespan_s);
    return seconds_since(run_start) + slowest < budget;
  };
  const double untraced_budget =
      args.trace == 0 ? args.seconds : 0.4 * args.seconds;
  std::vector<BatchRun> untraced;
  std::vector<double> setup;
  do {
    untraced.push_back(run_batch(workload));
    for (std::size_t i = 0; i < kSetupsPerBatch; ++i) {
      setup.push_back(measure_setup(workload));
    }
  } while ((args.trace == 0 && untraced.size() < kMinBatches) ||
           room_for_batch(untraced, untraced_budget));
  const double rss_mb = peak_rss_mb();

  std::vector<BatchRun> traced;
  std::vector<SpanLayers> traced_layers;
  std::uint64_t dropped_spans = 0;
  if (args.trace == 1) {
    do {
      // Fresh rings per batch, large enough that no span is dropped (a
      // dropped span would under-count its layer).
      obs::configure("", kTraceRing);
      obs::arm(true);
      traced.push_back(run_batch(workload));
      obs::arm(false);
      dropped_spans += obs::dropped_spans();
      traced_layers.push_back(read_spans(obs::snapshot_spans()));
    } while (room_for_batch(traced, 0.8 * args.seconds));
    obs::reset();
  }

  // ---- checks common to every batch
  std::vector<const BatchRun*> batches;
  for (const BatchRun& b : untraced) batches.push_back(&b);
  for (const BatchRun& b : traced) batches.push_back(&b);
  std::size_t attempted = 0, failed = 0;
  for (const BatchRun* b : batches) {
    for (const svc::JobResult& r : b->results) {
      ++attempted;
      if (!job_ok(r)) {
        ++failed;
        report.error("job " + r.name + " ended " + svc::to_string(r.state) +
                     (r.degraded ? " (degraded)" : "") +
                     (r.error.empty() ? "" : ": " + r.error));
      } else if (workload.require_exact &&
                 r.mode == svc::JobMode::kMinEffCyc && !r.circuit.all_exact) {
        report.error("job " + r.name + " is not all_exact");
      }
    }
  }
  const std::string digest = quality_digest(untraced.front());
  const WorkCounters counters = work_counters(untraced.front());
  std::size_t quality_drift = 0;
  for (const BatchRun* b : batches) {
    if (quality_digest(*b) != digest) {
      // A wall-clock MILP budget may legitimately return another
      // incumbent under another load; everywhere else this is a bug.
      ++quality_drift;
      if (!workload.wall_clock_budget) {
        report.error("quality columns differ between batches of one seed");
      }
    }
    if (!workload.wall_clock_budget && !(work_counters(*b) == counters)) {
      report.error("work counters differ between batches of one seed");
    }
  }
  {
    // Oracle for the score jobs: a solo simulation with the flow's
    // scoring options, outside the scheduler and its shared fleet, must
    // give the same theta.
    const BatchRun& b = untraced.front();
    for (std::size_t i = 0; i < b.specs.size(); ++i) {
      if (b.results[i].mode != svc::JobMode::kScoreOnly) continue;
      sim::SimOptions sopt = flow::scoring_options(b.specs[i].flow);
      sopt.threads = 2;
      const double theta = sim::simulate_throughput(b.specs[i].rrg, sopt).theta;
      if (theta != b.results[i].theta_sim) {
        report.error("job " + b.results[i].name + " theta " +
                     fmt(b.results[i].theta_sim) + " != solo simulation " +
                     fmt(theta));
      }
    }
  }

  // ---- end-to-end metrics (untraced batches)
  // The p50 and the tail are each batch's nearest-rank percentiles,
  // median over batches: host speed drifts between batches, and a
  // percentile over pooled samples would follow the share of slow
  // batches in the run. Every batch has the same jobs, so the tail's
  // rank is fixed by the manifest.
  const std::size_t batch_jobs = untraced.front().latencies.size();
  const std::size_t rank = tail_rank(batch_jobs);
  std::vector<double> makespan, cpu, latency_p50, latency_tail;
  for (const BatchRun& b : untraced) {
    makespan.push_back(b.makespan_s);
    cpu.push_back(b.cpu_s);
    latency_p50.push_back(median(b.latencies));
    latency_tail.push_back(ranked(b.latencies, rank));
  }
  // Quality per batch (identical across batches except on budget_walk),
  // reported as the median: the paper's I averaged over the MIN_EFF_CYC
  // jobs and the share of them that proved every MILP optimal.
  std::vector<double> improve, exact;
  for (const BatchRun& b : untraced) {
    double improve_sum = 0.0, exact_jobs = 0.0, flow_jobs = 0.0;
    for (const svc::JobResult& r : b.results) {
      if (r.mode != svc::JobMode::kMinEffCyc) continue;
      flow_jobs += 1.0;
      exact_jobs += r.circuit.all_exact ? 1.0 : 0.0;
      improve_sum += r.circuit.improve_percent;
    }
    improve.push_back(flow_jobs == 0.0 ? 0.0 : improve_sum / flow_jobs);
    exact.push_back(flow_jobs == 0.0 ? 0.0 : exact_jobs / flow_jobs);
  }
  const double improve_pct = median(improve);
  const double exact_share = median(exact);

  if (args.trace == 0) {
    report.metric("setup_s", median(setup), "s");
    report.metric("makespan_s", median(makespan), "s");
    report.metric("job_latency_p50_s", median(latency_p50), "s");
    report.metric("job_latency_tail_s", median(latency_tail), "s");
    report.metric("cpu_s", median(cpu), "s");
    report.metric("peak_rss_mb", rss_mb, "MB");
    // The NEE-relative effective cycle time, 1 - I/100, over the
    // MIN_EFF_CYC jobs: lower is better and never 0.
    report.metric("eff_cyc_ratio", 1.0 - improve_pct / 100.0, "ratio");
  }
  const double failed_share = static_cast<double>(failed) / attempted;
  report.counter("job_latency_batch_jobs", static_cast<double>(batch_jobs));
  report.counter("job_latency_samples",
                 static_cast<double>(batch_jobs * untraced.size()));
  report.counter("job_latency_tail_level",
                 static_cast<double>(rank) / static_cast<double>(batch_jobs));
  report.counter("improve_pct_mean", improve_pct);
  report.counter("exact_share", exact_share);
  report.counter("failed_share", failed_share);
  report.counter("quality_drift", static_cast<double>(quality_drift));
  report.counter("lp.bb_nodes", static_cast<double>(counters.bb_nodes));
  report.counter("lp.lp_iterations",
                 static_cast<double>(counters.lp_iterations));
  report.counter("flow.unique_simulations",
                 static_cast<double>(counters.unique_simulations));
  report.counter("sim.simulated_cycles",
                 static_cast<double>(counters.simulated_cycles));
  if (!workload.wall_clock_budget) {
    report.exact("quality_digest", digest_hash(digest));
    report.exact("lp.bb_nodes", std::to_string(counters.bb_nodes));
    report.exact("lp.lp_iterations", std::to_string(counters.lp_iterations));
    report.exact("flow.unique_simulations",
                 std::to_string(counters.unique_simulations));
    report.exact("sim.simulated_cycles",
                 std::to_string(counters.simulated_cycles));
  }

  if (args.trace == 1) {
    if (dropped_spans != 0) {
      report.error("obs dropped " + std::to_string(dropped_spans) +
                   " span(s): the per-layer breakdown is incomplete");
    }
    const LayerProbe probe =
        probe_layers(untraced.front().specs, workload.probe_circuits);
    const LayerProbe again =
        probe_layers(untraced.front().specs, workload.probe_circuits);
    if (probe.heur_lp_evals != again.heur_lp_evals) {
      report.error("heur_eff_cyc LP evaluation count is not repeatable");
    }
    report.counter("heur.lp_evals", static_cast<double>(probe.heur_lp_evals));
    // The probe's fixed options make its work independent of the load.
    report.exact("heur.lp_evals", std::to_string(probe.heur_lp_evals));

    // Per batch, then the median over traced batches.
    std::vector<double> materialize, scheduler_s, queue_p50, walk, sim_wait,
        untraced_share, walk_self, milp_s, milp_n, milp_p50, slice_s, slices,
        slice_p50, cycles_per_s, hit_ratio, traced_makespan, job_hits,
        retries;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const BatchRun& b = traced[i];
      const SpanLayers& l = traced_layers[i];
      materialize.push_back(b.materialize_s);
      scheduler_s.push_back(b.scheduler_s);
      queue_p50.push_back(median(l.queue_waits));
      double walk_sum = 0.0, wait_sum = 0.0;
      for (const svc::JobResult& r : b.results) {
        walk_sum += r.stats.walk_seconds;
        wait_sum += r.stats.sim_wait_seconds;
      }
      walk.push_back(walk_sum);
      sim_wait.push_back(wait_sum);
      untraced_share.push_back(l.attempt_s > 0.0 ? l.untraced_s / l.attempt_s
                                                 : 0.0);
      walk_self.push_back(l.walk_step_s - l.milp_in_walk_s);
      milp_s.push_back(sum(l.milp_solves));
      milp_n.push_back(static_cast<double>(l.milp_solves.size()));
      milp_p50.push_back(median(l.milp_solves));
      slice_s.push_back(sum(l.slices));
      slices.push_back(static_cast<double>(l.slices.size()));
      slice_p50.push_back(median(l.slices));
      cycles_per_s.push_back(
          sum(l.slices) > 0.0
              ? static_cast<double>(work_counters(b).simulated_cycles) /
                    sum(l.slices)
              : 0.0);
      const double lookups =
          static_cast<double>(b.fleet_cache.hits + b.fleet_cache.misses);
      hit_ratio.push_back(
          lookups > 0.0 ? static_cast<double>(b.fleet_cache.hits) / lookups
                        : 0.0);
      traced_makespan.push_back(b.makespan_s);
      job_hits.push_back(static_cast<double>(b.stats.job_cache_hits));
      retries.push_back(static_cast<double>(b.stats.retries));
    }
    const double nodes = static_cast<double>(counters.bb_nodes);
    report.metric("svc.setup.materialize_s", median(materialize), "s");
    report.metric("svc.setup.scheduler_s", median(scheduler_s), "s");
    report.metric("svc.queue_wait_p50_s", median(queue_p50), "s");
    report.metric("svc.job_cache_hits", median(job_hits), "count");
    report.metric("svc.retries", median(retries), "count");
    report.metric("flow.walk_s", median(walk), "s");
    report.metric("flow.sim_wait_s", median(sim_wait), "s");
    report.metric("flow.unique_simulations",
                  static_cast<double>(counters.unique_simulations), "count");
    report.metric("flow.untraced_share", median(untraced_share), "ratio");
    report.metric("core.walk_self_s", median(walk_self), "s");
    report.metric("lp.milp_solve_s", median(milp_s), "s");
    report.metric("lp.milp_solves", median(milp_n), "count");
    report.metric("lp.milp_solve_p50_s", median(milp_p50), "s");
    report.metric("lp.bb_nodes", nodes, "count");
    report.metric("lp.lp_iterations",
                  static_cast<double>(counters.lp_iterations), "count");
    report.metric("lp.iters_per_node",
                  nodes > 0.0 ? static_cast<double>(counters.lp_iterations) /
                                    nodes
                              : 0.0,
                  "ratio");
    report.metric("lp.warm_fallbacks",
                  static_cast<double>(counters.warm_fallbacks), "count");
    report.metric("lp.throughput_lp_ms", probe.throughput_lp_ms, "ms");
    report.metric("heur.eff_cyc_s", probe.heur_s, "s");
    report.metric("heur.lp_evals", static_cast<double>(probe.heur_lp_evals),
                  "count");
    report.metric("sim.slice_s", median(slice_s), "s");
    report.metric("sim.slices", median(slices), "count");
    report.metric("sim.slice_p50_s", median(slice_p50), "s");
    report.metric("sim.simulated_cycles",
                  static_cast<double>(counters.simulated_cycles), "count");
    report.metric("sim.cycles_per_s", median(cycles_per_s), "1/s");
    report.metric("sim.cache_hit_ratio", median(hit_ratio), "ratio");
    report.metric("obs.trace_overhead",
                  median(traced_makespan) / median(makespan), "ratio");
    report.metric("obs.dropped_spans", static_cast<double>(dropped_spans),
                  "count");
    // Quality columns that can read 0, so they cannot carry an end-to-end
    // bound.
    report.metric("quality.improve_pct_mean", improve_pct, "%");
    report.metric("quality.exact_share", exact_share, "ratio");
    report.metric("quality.failed_share", failed_share, "ratio");
  }

  for (const BatchRun* b : batches) {
    std::string jobs;
    for (const svc::JobResult& r : b->results) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %s=%.2f", r.name.c_str(),
                    r.stats.wall_seconds);
      jobs += buf;
    }
    std::fprintf(stderr, "perfbench: %s batch makespan %.3f s, jobs:%s\n",
                 workload.name.c_str(), b->makespan_s, jobs.c_str());
  }
  std::printf("%s\n", report
                          .json(workload.name, args.seed, args.trace,
                                attempted, failed, batches.size())
                          .c_str());
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
