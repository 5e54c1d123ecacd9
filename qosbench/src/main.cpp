// qosbench — the repository benchmark. One process runs one workload and
// prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (host time, spans off);
// with --trace 1 they are the per-layer ones, measured from outside with
// spans around each public call and with ablation passes (checking legs
// toggled, bare stepping, fast-forward off, monitor on).
//
// A run repeats one fixed set of units (scenarios, switch segments or
// shards) over a number of passes set by --seconds. Every pass runs the
// same inputs, so its simulated totals (delivered packets, simulated
// cycles, grants checked) must repeat exactly between passes and between
// runs at one seed; a mismatch fails the pass. Host times are summarised
// from each unit's fastest repeat: repeats differ only by interference
// from the shared host, which only ever adds time. campaign_sharded's
// throughput is its fastest measured pass, wall time included.
//
// Usage: qosbench --workload NAME --seed N --seconds S --trace 0|1
//                 --state-dir DIR
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "campaign/service.hpp"
#include "check/differential.hpp"
#include "check/scenario.hpp"
#include "exec/thread_pool.hpp"
#include "harness.hpp"
#include "sim/alloc_hook.hpp"
#include "switch/crossbar.hpp"
#include "workloads.hpp"

namespace qb = qosbench;
namespace check = ssq::check;
namespace campaign = ssq::campaign;
namespace fs = std::filesystem;
using ssq::Cycle;
using qb::Workload;

namespace {

// ---- sizes ------------------------------------------------------------------
// A pass of each workload takes a little under `pass_s` seconds on a 4-CPU
// x86 host; a run makes round(seconds / pass_s) passes (at least three), so
// the pass count, and with it each unit's number of repeats, does not
// depend on the speed of the code under test.

struct CampaignSizes {
  std::uint64_t scenarios;  // per pass
  std::uint64_t warm;       // warm-up block at kWarmSeed, timed as set-up
  std::uint64_t ablation;   // scenarios in each traced ablation round
  double pass_s;
};
constexpr CampaignSizes kDense{990, 20, 160, 2.6};
constexpr CampaignSizes kSparse{800, 20, 60, 3.2};
// The warm-up block is the same at every workload seed, so set-up time does
// not depend on which scenarios the seed picks.
constexpr std::uint64_t kWarmSeed = 0;

constexpr Cycle kHotspotWarmup = 50000;
constexpr Cycle kHotspotSegment = 2000;
constexpr std::size_t kHotspotSegments = 200;
constexpr std::size_t kHotspotStepSample = 4000;
constexpr double kHotspotPassS = 0.5;

constexpr std::uint64_t kShardedScenarios = 1024;  // per grid point
constexpr std::uint64_t kShardedShards = 256;
constexpr std::uint64_t kShardedAblation = 48;
constexpr int kShardedSetupRepeats = 8;
constexpr double kShardedPassS = 2.3;

// ---- arguments ----------------------------------------------------------------

struct Args {
  Workload workload = Workload::CampaignDense;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path state_dir;
};

std::uint64_t parse_u64(const std::string& v, const std::string& what) {
  std::size_t end = 0;
  const unsigned long long x = std::stoull(v, &end);
  if (end != v.size()) throw std::invalid_argument("bad " + what + ": " + v);
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string v = argv[++i];
    if (key == "--workload") {
      const auto w = qb::parse_workload(v);
      if (!w) throw std::invalid_argument("unknown workload: " + v);
      a.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = parse_u64(v, "seed");
    } else if (key == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(v, "seconds"));
    } else if (key == "--trace") {
      a.trace = parse_u64(v, "trace") != 0;
    } else if (key == "--state-dir") {
      a.state_dir = v;
    } else {
      throw std::invalid_argument("unknown option: " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (a.state_dir.empty()) {
    throw std::invalid_argument("--state-dir is required");
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// ---- host -------------------------------------------------------------------

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(qb::now_ns() - t0_ns) * 1e-9;
}

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Paces a run's passes: round(seconds / pass_s) of them, at least three.
/// On a host slower than the sizes assume, a run stops starting passes
/// (after three) once the next, if as long as the last, would end past 1.1x
/// its budget, so it still ends in time.
class PassClock {
 public:
  PassClock(double seconds, double pass_s)
      : seconds_(seconds),
        passes_(std::max<std::uint64_t>(
            3, static_cast<std::uint64_t>(std::llround(seconds / pass_s)))),
        t0_(qb::now_ns()),
        last_(t0_) {}

  /// Whether to start pass `pass`; called once before each pass.
  bool more(std::uint64_t pass) {
    const std::int64_t now = qb::now_ns();
    const double last_s = static_cast<double>(now - last_) * 1e-9;
    last_ = now;
    return pass < 3 ||
           (pass < passes_ &&
            static_cast<double>(now - t0_) * 1e-9 + last_s < 1.1 * seconds_);
  }

 private:
  double seconds_;
  std::uint64_t passes_;
  std::int64_t t0_;
  std::int64_t last_;
};

/// Each unit's fastest repeat across passes, in ms.
class FastestRepeat {
 public:
  explicit FastestRepeat(std::size_t units)
      : ms_(units, std::numeric_limits<double>::infinity()) {}
  void add(std::size_t unit, double ms) { ms_[unit] = std::min(ms_[unit], ms); }
  [[nodiscard]] const std::vector<double>& ms() const { return ms_; }
  [[nodiscard]] double total_s() const { return sum(ms_) * 1e-3; }

 private:
  std::vector<double> ms_;
};

// ---- results ----------------------------------------------------------------

/// Simulated totals of one pass. Deterministic at a fixed seed.
struct Totals {
  std::uint64_t delivered = 0;
  std::uint64_t cycles = 0;
  std::uint64_t grants = 0;
  bool operator==(const Totals&) const = default;
  Totals& operator+=(const Totals& o) {
    delivered += o.delivered;
    cycles += o.cycles;
    grants += o.grants;
    return *this;
  }
};

std::string to_string(const Totals& t) {
  return "delivered=" + std::to_string(t.delivered) +
         " cycles=" + std::to_string(t.cycles) +
         " grants=" + std::to_string(t.grants);
}

/// Per-layer metrics in output order. Metrics of a layer a workload does
/// not run read 0 (README.md lists which workload measures which metric).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"check.generate_us", "us"},
    {"check.instantiate_us", "us"},
    {"check.checker_build_us", "us"},
    {"check.checked_ns_per_cycle", "ns"},
    {"check.bare_ns_per_cycle", "ns"},
    {"check.invariant_leg_ns_per_cycle", "ns"},
    {"check.reference_leg_ns_per_cycle", "ns"},
    {"check.circuit_leg_ns_per_cycle", "ns"},
    {"check.state_leg_ns_per_cycle", "ns"},
    {"check.differential_share", "frac"},
    {"check.circuit_share", "frac"},
    {"check.grants_checked", "count"},
    {"switch.ns_per_cycle", "ns"},
    {"switch.step_ns_p50", "ns"},
    {"switch.step_ns_tail", "ns"},
    {"switch.build_us", "us"},
    {"switch.warmup_ms", "ms"},
    {"switch.allocs_per_step", "count"},
    {"switch.delivered_packets", "count"},
    {"switch.sim_cycles", "count"},
    {"switch.ff_skipped_cycles", "count"},
    {"switch.ff_idle_stepped_cycles", "count"},
    {"switch.full_step_frac", "frac"},
    {"switch.ff_speedup", "x"},
    {"fault.faulted_share", "frac"},
    {"fault.injected", "count"},
    {"fault.scrub_repairs", "count"},
    {"obs.monitor_ns_per_cycle", "ns"},
    {"obs.windows_checked", "count"},
    {"obs.violations", "count"},
    {"campaign.init_ms", "ms"},
    {"campaign.claim_us", "us"},
    {"campaign.shard_ms_p50", "ms"},
    {"campaign.shard_ms_max", "ms"},
    {"campaign.journal_bytes_per_unit", "bytes"},
    {"campaign.report_ms", "ms"},
    {"exec.worker_busy_frac", "frac"},
    {"exec.imbalance", "x"},
    {"host.cpu_per_wall", "x"},
    {"trace.overhead_frac", "frac"},
};

/// What one run reports: its unit counts, its failures and its metrics.
class Run {
 public:
  explicit Run(Args args) : args_(std::move(args)) {}

  const Args& args() const { return args_; }
  std::uint64_t seed() const { return args_.seed; }

  /// A human-readable line; the result stays the last stdout line.
  static void note(const std::string& line) {
    std::cout << "# " << line << "\n";
  }

  /// Judges one pass of `units` units, `failed_units` of which failed on
  /// their own. Any fault of the pass as a whole (`faults`, or totals that
  /// differ from the first pass or from an earlier run at this seed) fails
  /// every unit of the pass.
  void judge(std::uint64_t units, std::uint64_t failed_units,
             const Totals& totals, std::vector<std::string> faults) {
    attempted_ += units;
    if (!first_) {
      first_ = totals;
      check_across_runs(totals, faults);
    } else if (!(totals == *first_)) {
      faults.push_back("simulated totals differ between passes: " +
                       to_string(totals) + " vs " + to_string(*first_));
    }
    const std::uint64_t failed = faults.empty() ? failed_units : units;
    for (const std::string& f : faults) note("FAILED pass: " + f);
    if (failed_units > 0) {
      note("FAILED units: " + std::to_string(failed_units) + " of " +
           std::to_string(units));
    }
    failed_ += failed;
  }

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  /// The end-to-end metrics from each unit's fastest repeat (`best`), the
  /// host time of one pass at those speeds (`pass_s`), its totals, and the
  /// set-up repeated before every pass, of which the fastest counts too.
  void end_to_end(const FastestRepeat& best, double pass_s,
                  const Totals& totals, const std::vector<double>& setup_s) {
    const auto units = static_cast<double>(best.ms().size());
    metric("units_per_s", units / pass_s, "1/s");
    metric("sim_cycles_per_s", static_cast<double>(totals.cycles) / pass_s,
           "1/s");
    metric("grants_per_s", static_cast<double>(totals.grants) / pass_s, "1/s");
    const qb::Percentile p50 = qb::percentile(best.ms(), 50.0);
    const qb::Percentile t = qb::tail(best.ms());
    metric("unit_ms_p50", p50.value, "ms");
    metric("unit_ms_tail", t.value, "ms");
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "unit_ms_tail = p%g of %zu units (%zu beyond)", t.pct, t.n,
                  t.beyond);
    note(buf);
    metric("setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s");
    metric("peak_rss_mb", peak_rss_mb(), "MB");
  }

  /// Records the per-layer metrics in kLayerMetrics order, 0 where absent.
  void layer_metrics(const std::map<std::string, double>& m) {
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = m.find(name);
      metric(name, it == m.end() ? 0.0 : it->second, unit);
    }
  }

  void print_result() const {
    std::cout << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted_
              << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
                << "\": {\"value\": " << buf << ", \"unit\": \"" << m.unit
                << "\"}";
    }
    std::cout << "}}" << std::endl;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  void check_across_runs(const Totals& t, std::vector<std::string>& faults) {
    const fs::path dir = args_.state_dir / "witness";
    fs::create_directories(dir);
    const fs::path file =
        dir / (std::string(qb::workload_name(args_.workload)) + "-" +
               std::to_string(args_.seed) + ".txt");
    std::ifstream in(file);
    std::string before;
    if (in && std::getline(in, before)) {
      if (before != to_string(t)) {
        faults.push_back("simulated totals differ from an earlier run at "
                         "this seed: " + to_string(t) + " vs " + before);
      }
      return;
    }
    std::ofstream(file) << to_string(t) << "\n";
  }

  Args args_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::optional<Totals> first_;
};

/// Writes every span as a Chrome trace (load in chrome://tracing or
/// Perfetto) to the state directory, one file per workload.
void write_spans(const Run& run,
                 const std::vector<const qb::SpanRecorder*>& recorders) {
  const fs::path file =
      run.args().state_dir /
      ("trace-" + std::string(qb::workload_name(run.args().workload)) +
       ".json");
  std::ofstream out(file);
  out << "{\"traceEvents\": [";
  bool first = true;
  std::size_t count = 0;
  for (std::size_t tid = 0; tid < recorders.size(); ++tid) {
    for (const qb::Span& s : recorders[tid]->spans()) {
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
          << ", \"ts\": " << static_cast<double>(s.start_ns) / 1e3
          << ", \"dur\": " << static_cast<double>(s.duration()) / 1e3
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << "}}";
      first = false;
      ++count;
    }
  }
  out << "\n]}\n";
  Run::note("spans: " + std::to_string(count) + " written to " +
            file.string());
}

/// Mean self time in us of the spans called `name`; 0 when there are none.
double mean_self_us(const qb::SpanRecorder& rec, const std::string& name) {
  const std::vector<std::int64_t> self = qb::self_times(rec.spans());
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < self.size(); ++i) {
    if (rec.spans()[i].name == name) {
      total += static_cast<double>(self[i]) * 1e-3;
      ++n;
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

// ---- checked scenarios: campaign_dense, campaign_sparse ---------------------

struct PassResult {
  double busy_s = 0.0;  // in the units, actual (not fastest) times
  Totals totals;
  std::uint64_t failed = 0;
  std::uint64_t differential = 0;
  std::uint64_t circuit = 0;
  std::uint64_t faulted = 0;
};

/// One pass over the scenarios at `indices`, each from generation to
/// verdict; records each scenario's time into `best`.
PassResult campaign_pass(Workload w, std::uint64_t seed,
                         std::span<const std::uint64_t> indices,
                         qb::SpanRecorder& rec, FastestRepeat* best) {
  const check::CheckOptions opts;
  PassResult p;
  for (std::size_t unit = 0; unit < indices.size(); ++unit) {
    const std::uint64_t i = indices[unit];
    check::Scenario s;
    check::RunResult r;
    bool threw = false;
    const std::int64_t ns = qb::timed(rec, "scenario", i, [&] {
      try {
        qb::timed(rec, "generate", i,
                  [&] { s = qb::campaign_scenario(w, i, seed); });
        qb::timed(rec, "run_scenario", i,
                  [&] { r = check::run_scenario(s, opts); });
      } catch (const std::exception& e) {
        threw = true;
        Run::note("scenario " + std::to_string(i) + " threw: " + e.what());
      }
    });
    if (best != nullptr) best->add(unit, ns_to_ms(ns));
    p.busy_s += static_cast<double>(ns) * 1e-9;
    if (r.failed) {
      Run::note("divergence in scenario " + std::to_string(i) + ": " +
                r.kind + " at cycle " + std::to_string(r.fail_cycle));
    }
    const qb::Depth d = qb::checking_depth(s);
    p.totals += {r.delivered, s.cycles, r.grants_checked};
    p.failed += r.failed || threw ? 1u : 0u;
    p.differential += d.differential ? 1u : 0u;
    p.circuit += d.circuit ? 1u : 0u;
    p.faulted += s.has_faults() ? 1u : 0u;
  }
  return p;
}

/// Counters of a bare run (instantiate, then CrossbarSwitch::run): what a
/// checked run cannot show.
struct BareCounters {
  std::uint64_t sim_cycles = 0;
  std::uint64_t skipped = 0;
  std::uint64_t idle_stepped = 0;
  std::uint64_t injected = 0;
  std::uint64_t repairs = 0;
  [[nodiscard]] std::uint64_t stepped() const {
    return sim_cycles - skipped - idle_stepped;
  }
  BareCounters& operator+=(const BareCounters& o) {
    sim_cycles += o.sim_cycles;
    skipped += o.skipped;
    idle_stepped += o.idle_stepped;
    injected += o.injected;
    repairs += o.repairs;
    return *this;
  }
};

BareCounters bare_run(const check::Scenario& s, qb::SpanRecorder& rec,
                      std::uint64_t id) {
  BareCounters c;
  check::ScenarioRun rig;
  qb::timed(rec, "instantiate", id, [&] { rig = check::instantiate(s); });
  qb::timed(rec, "run", id, [&] { rig.sim->run(s.cycles); });
  c.sim_cycles = rig.sim->now();
  c.skipped = rig.sim->ff_skipped_cycles();
  c.idle_stepped = rig.sim->ff_idle_stepped_cycles();
  if (rig.injector) c.injected = rig.injector->log().size();
  if (rig.scrubber) c.repairs = rig.scrubber->repairs();
  return c;
}

/// Fast-forward counters of `s` on the checked path: instantiate, a
/// DifferentialChecker with default options, DifferentialChecker::run.
/// Sets `diverged` if the checker stopped the run.
BareCounters checked_ff_run(const check::Scenario& s, bool& diverged) {
  BareCounters c;
  check::ScenarioRun rig = check::instantiate(s);
  check::DifferentialChecker checker(*rig.sim);
  diverged = !checker.run(s.cycles);
  c.sim_cycles = rig.sim->now();
  c.skipped = rig.sim->ff_skipped_cycles();
  c.idle_stepped = rig.sim->ff_idle_stepped_cycles();
  return c;
}

/// The ablation configurations, run back to back on each scenario so host
/// drift hits them alike. Leg costs are differences between them.
enum Cfg : std::size_t {
  kInstantiate,
  kCheckerBuild,
  kBare,
  kBareNoFf,
  kFull,
  kNoCircuit,
  kNoState,
  kRefOnly,
  kInvOnly,
  kMonitor,
  kNumCfgs,
};
constexpr std::array<const char*, kNumCfgs> kCfgNames = {
    "instantiate",    "checker_build",  "bare",
    "bare_noff",      "check_full",     "check_no_circuit",
    "check_no_state", "check_ref_only", "check_inv_only",
    "check_monitor"};

check::CheckOptions cfg_options(Cfg c) {
  check::CheckOptions o;
  switch (c) {
    case kNoCircuit:
      o.circuit = false;
      break;
    case kNoState:
      o.state_compare = false;
      break;
    case kRefOnly:
      o.circuit = false;
      o.state_compare = false;
      break;
    case kInvOnly:
      o.differential = false;
      break;
    case kMonitor:
      o.monitor = true;
      break;
    default:
      break;
  }
  return o;
}

/// Per-layer metrics of the checker and the bare switch from ablation
/// rounds over the scenarios at `indices` until `seconds` have passed (at
/// least one round). Each configuration's time is the sum over scenarios of
/// its fastest round.
void ablate(Workload w, std::uint64_t seed,
            std::span<const std::uint64_t> indices, double seconds,
            qb::SpanRecorder& rec, std::map<std::string, double>& out) {
  const std::size_t n = indices.size();
  std::vector<FastestRepeat> best(kNumCfgs, FastestRepeat(n));
  BareCounters counters;
  std::uint64_t windows = 0;
  std::uint64_t violations = 0;
  std::uint64_t rounds = 0;
  const std::int64_t t0 = qb::now_ns();
  for (; rounds == 0 || seconds_since(t0) < seconds; ++rounds) {
    for (std::size_t unit = 0; unit < n; ++unit) {
      const std::uint64_t i = indices[unit];
      check::Scenario s;
      qb::timed(rec, "generate", i,
                [&] { s = qb::campaign_scenario(w, i, seed); });
      for (std::size_t k = 0; k < kNumCfgs; ++k) {
        // Rotating the order keeps any first-run effect off one config.
        const auto c = static_cast<Cfg>((k + unit + rounds) % kNumCfgs);
        const check::CheckOptions opts = cfg_options(c);
        check::ScenarioRun rig;
        std::optional<check::DifferentialChecker> checker;
        std::int64_t dt = 0;
        switch (c) {
          case kInstantiate:
            dt = qb::timed(rec, kCfgNames[c], i,
                           [&] { rig = check::instantiate(s); });
            break;
          case kCheckerBuild:
            rig = check::instantiate(s);
            dt = qb::timed(rec, kCfgNames[c], i,
                           [&] { checker.emplace(*rig.sim, opts); });
            break;
          case kBare:
          case kBareNoFf: {
            check::Scenario b = s;
            b.fast_forward = c == kBare;
            BareCounters bc;
            dt = qb::timed(rec, kCfgNames[c], i,
                           [&] { bc = bare_run(b, rec, i); });
            if (rounds == 0 && c == kBare) counters += bc;
            break;
          }
          default: {
            check::RunResult r;
            dt = qb::timed(rec, kCfgNames[c], i,
                           [&] { r = check::run_scenario(s, opts); });
            if (r.failed) {
              Run::note("ablation " + std::string(kCfgNames[c]) +
                        " diverged on scenario " + std::to_string(i));
            }
            if (rounds == 0 && c == kMonitor) {
              windows += r.windows_checked;
              violations +=
                  r.violations_gb + r.violations_gl + r.violations_be;
            }
            break;
          }
        }
        best[c].add(unit, ns_to_ms(dt));
      }
    }
  }
  std::array<double, kNumCfgs> t{};  // ns over the n scenarios
  for (std::size_t c = 0; c < kNumCfgs; ++c) t[c] = best[c].total_s() * 1e9;
  const auto stepped = static_cast<double>(counters.stepped());
  const auto per_scenario_us = [&](double ns) {
    return ns / static_cast<double>(n) * 1e-3;
  };
  out["check.instantiate_us"] = per_scenario_us(t[kInstantiate]);
  out["check.checker_build_us"] = per_scenario_us(t[kCheckerBuild]);
  out["switch.build_us"] = per_scenario_us(t[kInstantiate]);
  out["check.checked_ns_per_cycle"] = t[kFull] / stepped;
  out["check.bare_ns_per_cycle"] = t[kBare] / stepped;
  out["check.invariant_leg_ns_per_cycle"] =
      qb::leg_ns_per_cycle(t[kInvOnly], t[kBare], stepped);
  out["check.reference_leg_ns_per_cycle"] =
      qb::leg_ns_per_cycle(t[kRefOnly], t[kInvOnly], stepped);
  out["check.circuit_leg_ns_per_cycle"] =
      qb::leg_ns_per_cycle(t[kFull], t[kNoCircuit], stepped);
  out["check.state_leg_ns_per_cycle"] =
      qb::leg_ns_per_cycle(t[kFull], t[kNoState], stepped);
  out["obs.monitor_ns_per_cycle"] =
      qb::leg_ns_per_cycle(t[kMonitor], t[kFull], stepped);
  out["obs.windows_checked"] = static_cast<double>(windows);
  out["obs.violations"] = static_cast<double>(violations);
  out["switch.ns_per_cycle"] =
      t[kBare] / static_cast<double>(counters.sim_cycles);
  out["switch.ff_skipped_cycles"] = static_cast<double>(counters.skipped);
  out["switch.ff_idle_stepped_cycles"] =
      static_cast<double>(counters.idle_stepped);
  out["switch.full_step_frac"] =
      stepped / static_cast<double>(counters.sim_cycles);
  out["switch.ff_speedup"] = t[kBareNoFf] / t[kBare];
  out["fault.injected"] = static_cast<double>(counters.injected);
  out["fault.scrub_repairs"] = static_cast<double>(counters.repairs);

  // Where a checked scenario's time goes, per scenario.
  std::ostringstream tab;
  tab << "ablation: " << n << " scenarios x " << rounds << " round(s), "
      << counters.stepped() << " stepped of " << counters.sim_cycles
      << " simulated cycles; us per scenario:";
  for (std::size_t c = 0; c < kNumCfgs; ++c) {
    tab << " " << kCfgNames[c] << "=" << per_scenario_us(t[c]);
  }
  Run::note(tab.str());
}

void run_campaign(Run& run) {
  const Workload w = run.args().workload;
  const CampaignSizes sz = w == Workload::CampaignDense ? kDense : kSparse;
  const std::uint64_t seed = run.seed();
  const bool traced = run.args().trace;
  const double budget = traced ? run.args().seconds / 2 : run.args().seconds;
  const std::vector<std::uint64_t> indices =
      qb::scenario_indices(seed, sz.scenarios);

  // campaign_sparse must actually skip or idle-step: a fast-forward that
  // never engages makes the workload a slow campaign_dense. The ablation
  // subset run on the checked path shows it; if not, every pass fails.
  qb::SpanRecorder off(false);
  std::vector<std::string> run_faults;
  if (w == Workload::CampaignSparse) {
    BareCounters ff;
    std::uint64_t diverged = 0;
    for (const std::uint64_t i : qb::scenario_indices(seed, sz.ablation)) {
      bool d = false;
      ff += checked_ff_run(qb::campaign_scenario(w, i, seed), d);
      diverged += d ? 1u : 0u;
    }
    Run::note("checked fast-forward: " + std::to_string(ff.skipped) +
              " skipped, " + std::to_string(ff.idle_stepped) +
              " idle-stepped of " + std::to_string(ff.sim_cycles) +
              " cycles");
    if (ff.skipped + ff.idle_stepped == 0) {
      run_faults.emplace_back("campaign_sparse never fast-forwarded");
    }
    if (diverged > 0) {
      run_faults.push_back(std::to_string(diverged) +
                           " scenarios diverged in the fast-forward check");
    }
  }

  // Timed passes, each after its set-up: a warm-up block checked before the
  // first timed unit, so lazy state and caches are filled. A traced run
  // alternates untraced and traced passes; the difference between them is
  // the tracing overhead.
  const std::vector<std::uint64_t> warm =
      qb::scenario_indices(kWarmSeed, sz.warm);
  qb::SpanRecorder rec(traced);
  std::vector<double> setup_s;
  FastestRepeat best(sz.scenarios), best_traced(sz.scenarios);
  PassResult last;
  double busy_s = 0.0;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = qb::now_ns();
  std::uint64_t pass = 0;
  for (PassClock clock(budget, sz.pass_s); clock.more(pass); ++pass) {
    const bool spans = traced && pass % 2 == 1;
    const std::int64_t s0 = qb::now_ns();
    (void)campaign_pass(w, kWarmSeed, warm, off, nullptr);
    setup_s.push_back(seconds_since(s0));
    last = campaign_pass(w, seed, indices, spans ? rec : off,
                         spans ? &best_traced : &best);
    busy_s += last.busy_s;
    std::vector<std::string> faults = run_faults;
    if (w == Workload::CampaignDense && last.differential == 0) {
      faults.emplace_back("no scenario was checked differentially");
    }
    run.judge(sz.scenarios, last.failed, last.totals, std::move(faults));
  }
  const double pass_wall = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu0;
  const auto nd = static_cast<double>(sz.scenarios);
  Run::note(std::string(qb::workload_name(w)) + " seed=" +
            std::to_string(seed) + ": " + std::to_string(pass) +
            " passes of " + std::to_string(sz.scenarios) +
            " scenarios; witness " + to_string(last.totals) +
            "; differential " + std::to_string(last.differential) +
            ", circuit " + std::to_string(last.circuit) + ", faulted " +
            std::to_string(last.faulted));

  if (!traced) {
    run.end_to_end(best, best.total_s(), last.totals, setup_s);
    return;
  }

  std::map<std::string, double> m;
  ablate(w, seed, qb::scenario_indices(seed, sz.ablation),
         run.args().seconds / 2, rec, m);
  m["check.generate_us"] = mean_self_us(rec, "generate");
  m["check.differential_share"] = static_cast<double>(last.differential) / nd;
  m["check.circuit_share"] = static_cast<double>(last.circuit) / nd;
  m["check.grants_checked"] = static_cast<double>(last.totals.grants);
  m["switch.delivered_packets"] = static_cast<double>(last.totals.delivered);
  m["switch.sim_cycles"] = static_cast<double>(last.totals.cycles);
  m["fault.faulted_share"] = static_cast<double>(last.faulted) / nd;
  // One thread runs every unit back to back: busy is the units' share of
  // the passes' wall time (the rest is the warm-up blocks).
  m["exec.worker_busy_frac"] = busy_s / pass_wall;
  m["exec.imbalance"] = 1.0;
  m["host.cpu_per_wall"] = cpu / pass_wall;
  m["trace.overhead_frac"] = best_traced.total_s() / best.total_s() - 1.0;
  run.layer_metrics(m);
  write_spans(run, {&rec});
}

// ---- switch_r64_hotspot -------------------------------------------------------

struct HotspotPass {
  std::int64_t build_ns = 0;
  std::int64_t warmup_ns = 0;
  std::array<std::int64_t, kHotspotSegments> segment_ns{};
  std::uint64_t allocs = 0;
  Totals totals;
  std::uint64_t ff_skipped = 0;  // after warm-up
  std::uint64_t ff_idle_stepped = 0;
  std::vector<double> step_ns;
};

std::uint64_t delivered_total(const ssq::sw::CrossbarSwitch& sim) {
  std::uint64_t d = 0;
  for (ssq::FlowId f = 0; f < sim.workload().num_flows(); ++f) {
    d += sim.delivered_packets(f);
  }
  return d;
}

/// Builds and warms a switch, then runs the timed segments under the
/// allocation counter; with `steps`, then times that many single step()s.
HotspotPass hotspot_pass(std::uint64_t seed, bool fast_forward,
                         std::size_t steps, qb::SpanRecorder& rec,
                         std::uint64_t id) {
  HotspotPass p;
  ssq::sw::SwitchConfig cfg = qb::hotspot_config(seed);
  cfg.fast_forward = fast_forward;
  std::unique_ptr<ssq::sw::CrossbarSwitch> sim;
  p.build_ns = qb::timed(rec, "build", id, [&] {
    sim = std::make_unique<ssq::sw::CrossbarSwitch>(
        cfg, qb::hotspot_workload(seed));
  });
  p.warmup_ns =
      qb::timed(rec, "warmup", id, [&] { sim->warmup(kHotspotWarmup); });
  const std::uint64_t delivered0 = delivered_total(*sim);
  const std::uint64_t skipped0 = sim->ff_skipped_cycles();
  const std::uint64_t idle0 = sim->ff_idle_stepped_cycles();
  rec.reserve(kHotspotSegments);  // spans must not allocate while counted
  ssq::alloc_hook::reset();
  for (std::size_t k = 0; k < kHotspotSegments; ++k) {
    p.segment_ns[k] =
        qb::timed(rec, "run", id, [&] { sim->run(kHotspotSegment); });
  }
  p.allocs = ssq::alloc_hook::allocations();
  p.totals.delivered = delivered_total(*sim) - delivered0;
  p.totals.cycles = kHotspotSegments * kHotspotSegment;
  p.totals.grants = p.totals.delivered;  // one grant per delivered packet
  // The first cycles, before any source has fired, may be idle; the warm
  // switch never is.
  p.ff_skipped = sim->ff_skipped_cycles() - skipped0;
  p.ff_idle_stepped = sim->ff_idle_stepped_cycles() - idle0;
  p.step_ns.reserve(steps);
  for (std::size_t k = 0; k < steps; ++k) {
    p.step_ns.push_back(static_cast<double>(
        qb::timed(rec, "step", id, [&] { sim->step(); })));
  }
  return p;
}

void run_hotspot(Run& run) {
  const bool traced = run.args().trace;
  qb::SpanRecorder rec(traced), off(false);
  FastestRepeat best(kHotspotSegments), best_traced(kHotspotSegments),
      best_noff(kHotspotSegments);
  std::vector<double> setup_s, build_us, warmup_ms, step_ns;
  std::uint64_t allocs = 0, ff_skipped = 0, ff_idle_stepped = 0;
  Totals last;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = qb::now_ns();
  std::uint64_t pass = 0;
  for (PassClock clock(run.args().seconds, kHotspotPassS); clock.more(pass);
       ++pass) {
    // A traced run cycles three kinds of pass: untraced; spans around every
    // run() segment, which against the untraced ones is the tracing
    // overhead; fast-forward off, which on a never-quiescent switch must
    // not move the totals (its speed-up is ~1).
    const std::uint64_t kind = traced ? pass % 3 : 0;
    const bool ff = kind != 2;
    qb::SpanRecorder& r = kind == 1 ? rec : off;
    const int root = r.open("pass", pass);
    const HotspotPass p = hotspot_pass(
        run.seed(), ff, traced && ff ? kHotspotStepSample : 0, r, pass);
    r.close(root);
    std::vector<std::string> faults;
    if (p.ff_skipped + p.ff_idle_stepped != 0) {
      faults.push_back("the never-quiescent switch fast-forwarded " +
                       std::to_string(p.ff_skipped + p.ff_idle_stepped) +
                       " cycles");
    }
    if (p.totals.delivered == 0) faults.emplace_back("nothing delivered");
    if (p.allocs != 0) {
      faults.push_back(std::to_string(p.allocs) +
                       " allocations at steady state");
    }
    run.judge(kHotspotSegments, 0, p.totals, std::move(faults));
    allocs += p.allocs;
    ff_skipped += p.ff_skipped;
    ff_idle_stepped += p.ff_idle_stepped;
    last = p.totals;
    setup_s.push_back(static_cast<double>(p.build_ns + p.warmup_ns) * 1e-9);
    build_us.push_back(static_cast<double>(p.build_ns) * 1e-3);
    warmup_ms.push_back(ns_to_ms(p.warmup_ns));
    FastestRepeat& b = kind == 0 ? best : kind == 1 ? best_traced : best_noff;
    for (std::size_t k = 0; k < kHotspotSegments; ++k) {
      b.add(k, ns_to_ms(p.segment_ns[k]));
    }
    step_ns.insert(step_ns.end(), p.step_ns.begin(), p.step_ns.end());
  }
  const double wall = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu0;
  Run::note("switch_r64_hotspot seed=" + std::to_string(run.seed()) + ": " +
            std::to_string(pass) + " passes of " +
            std::to_string(kHotspotSegments) + " x " +
            std::to_string(kHotspotSegment) + " cycles; witness " +
            to_string(last));

  if (!traced) {
    run.end_to_end(best, best.total_s(), last, setup_s);
    return;
  }

  std::map<std::string, double> m;
  const double ns_per_cycle =
      best.total_s() * 1e9 / static_cast<double>(last.cycles);
  const qb::Percentile step_tail = qb::tail(step_ns);
  m["switch.ns_per_cycle"] = ns_per_cycle;
  m["switch.step_ns_p50"] = qb::percentile(step_ns, 50.0).value;
  m["switch.step_ns_tail"] = step_tail.value;
  char buf[120];
  std::snprintf(buf, sizeof buf, "switch.step_ns_tail = p%g of %zu steps",
                step_tail.pct, step_tail.n);
  Run::note(buf);
  m["switch.build_us"] = qb::median(build_us);
  m["switch.warmup_ms"] = qb::median(warmup_ms);
  m["switch.allocs_per_step"] =
      static_cast<double>(allocs) /
      static_cast<double>(pass * kHotspotSegments * kHotspotSegment);
  m["switch.delivered_packets"] = static_cast<double>(last.delivered);
  m["switch.sim_cycles"] = static_cast<double>(last.cycles);
  m["switch.ff_skipped_cycles"] = static_cast<double>(ff_skipped);
  m["switch.ff_idle_stepped_cycles"] = static_cast<double>(ff_idle_stepped);
  m["switch.full_step_frac"] =
      1.0 - static_cast<double>(ff_skipped + ff_idle_stepped) /
                static_cast<double>(pass * last.cycles);
  m["switch.ff_speedup"] = best_noff.total_s() / best.total_s();
  // No fault plan, scrubber or monitor is attached to this switch.
  m["fault.injected"] = 0.0;
  m["fault.scrub_repairs"] = 0.0;
  m["obs.windows_checked"] = 0.0;
  m["obs.violations"] = 0.0;
  m["exec.worker_busy_frac"] = 1.0;
  m["exec.imbalance"] = 1.0;
  m["host.cpu_per_wall"] = cpu / wall;
  m["trace.overhead_frac"] = best_traced.total_s() / best.total_s() - 1.0;
  run.layer_metrics(m);
  write_spans(run, {&rec});
}

// ---- campaign_sharded ---------------------------------------------------------

struct ShardedPass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double init_ms = 0.0;
  double report_ms = 0.0;
  std::vector<double> shard_ms;  // by shard index: its claim and run_shard
  std::vector<double> claim_us;
  std::vector<double> busy_s;  // per worker
  std::uint64_t incomplete = 0;
  std::uint64_t journal_bytes = 0;
  campaign::Report report;
};

/// One campaign from an empty directory to its reports: directory init and
/// pool start (the set-up), then workers looping claim -> run_shard, then
/// write_reports. recs[0] records the main thread, recs[1 + w] worker w.
/// The set-up takes well under a millisecond, so it is made
/// kShardedSetupRepeats times from scratch; the pass keeps the last
/// directory and pool and reports the fastest repeat.
ShardedPass sharded_pass(const fs::path& dir, const campaign::Manifest& m,
                         unsigned threads,
                         const std::vector<qb::SpanRecorder*>& recs,
                         std::uint64_t pass) {
  ShardedPass p;
  p.init_ms = p.setup_s = std::numeric_limits<double>::infinity();
  fs::create_directories(dir.parent_path());
  qb::SpanRecorder& main_rec = *recs[0];
  const int root = main_rec.open("pass", pass);
  std::unique_ptr<ssq::exec::ThreadPool> pool;
  for (int r = 0; r < kShardedSetupRepeats; ++r) {
    pool.reset();
    fs::remove_all(dir);
    const std::int64_t init_ns = qb::timed(main_rec, "init", pass, [&] {
      campaign::init_campaign_dir(dir.string(), m);
    });
    const std::int64_t pool_ns = qb::timed(main_rec, "pool_start", pass, [&] {
      pool = std::make_unique<ssq::exec::ThreadPool>(threads);
    });
    p.init_ms = std::min(p.init_ms, ns_to_ms(init_ns));
    p.setup_s =
        std::min(p.setup_s, static_cast<double>(init_ns + pool_ns) * 1e-9);
  }

  campaign::RunnerHooks hooks;
  hooks.durable = false;  // fsync latency is storage noise, not code cost
  p.shard_ms.assign(m.shards, 0.0);
  std::vector<std::vector<double>> claim_us(threads);
  std::vector<double> busy(threads, 0.0);
  std::vector<std::uint64_t> incomplete(threads, 0);
  const std::int64_t t0 = qb::now_ns();
  pool->run_indexed(threads, [&](std::size_t wk) {
    qb::SpanRecorder& rec = *recs[wk + 1];
    for (;;) {
      campaign::ShardClaim claim;
      const int cs = rec.open("claim", pass);
      const std::int64_t c0 = qb::now_ns();
      const std::optional<std::uint64_t> k =
          campaign::claim_lowest_undone(dir.string(), m, claim);
      const std::int64_t c1 = qb::now_ns();
      rec.close(cs);
      if (k) rec.set_id(cs, *k);
      claim_us[wk].push_back(static_cast<double>(c1 - c0) * 1e-3);
      busy[wk] += static_cast<double>(c1 - c0) * 1e-9;
      if (!k) break;
      campaign::ShardOutcome out{};
      const std::int64_t ns = qb::timed(rec, "run_shard", *k, [&] {
        out = campaign::run_shard(dir.string(), m, *k, hooks);
      });
      p.shard_ms[*k] = ns_to_ms(ns + c1 - c0);  // each shard is claimed once
      busy[wk] += static_cast<double>(ns) * 1e-9;
      if (out != campaign::ShardOutcome::Completed) ++incomplete[wk];
    }
  });
  campaign::ExecutionStats exec;
  exec.workers = threads;
  exec.elapsed_s = seconds_since(t0);
  const std::int64_t report_ns = qb::timed(main_rec, "report", pass, [&] {
    p.report = campaign::write_reports(dir.string(), m, exec);
  });
  p.wall_s = seconds_since(t0);
  main_rec.close(root);
  p.report_ms = ns_to_ms(report_ns);
  for (unsigned wk = 0; wk < threads; ++wk) {
    p.claim_us.insert(p.claim_us.end(), claim_us[wk].begin(),
                      claim_us[wk].end());
    p.busy_s.push_back(busy[wk]);
    p.incomplete += incomplete[wk];
  }
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    std::error_code ec;
    const auto size = fs::file_size(campaign::ckpt_path(dir.string(), k), ec);
    if (!ec) p.journal_bytes += size;
  }
  pool.reset();
  fs::remove_all(dir);
  return p;
}

void run_sharded(Run& run) {
  const bool traced = run.args().trace;
  const double budget = traced ? run.args().seconds / 2 : run.args().seconds;
  const unsigned threads =
      std::min(4u, ssq::exec::ThreadPool::hardware_threads());
  const campaign::Manifest m =
      qb::sharded_manifest(run.seed(), kShardedScenarios, kShardedShards);
  // Simulated cycles of a pass: every grid point runs every scenario to its
  // horizon (a diverged one fails the pass anyway). Shares of checking depth
  // are classified from the same scenarios.
  std::uint64_t cycles = 0, differential = 0, circuit = 0;
  for (std::uint64_t i = 0; i < m.scenarios; ++i) {
    const check::Scenario s =
        qb::campaign_scenario(Workload::CampaignSharded, i, m.base_seed);
    const qb::Depth d = qb::checking_depth(s);
    cycles += s.cycles;
    differential += d.differential ? 1u : 0u;
    circuit += d.circuit ? 1u : 0u;
  }
  cycles *= m.grid.size();

  // One recorder for the main thread and one per worker; untraced passes
  // share a disabled one, which no thread writes.
  std::vector<std::unique_ptr<qb::SpanRecorder>> owned;
  std::vector<qb::SpanRecorder*> on;
  for (unsigned i = 0; i <= threads; ++i) {
    owned.push_back(std::make_unique<qb::SpanRecorder>(traced));
    on.push_back(owned.back().get());
  }
  qb::SpanRecorder disabled(false);
  const std::vector<qb::SpanRecorder*> off(threads + 1, &disabled);
  const fs::path root =
      run.args().state_dir / "campaign" / std::to_string(::getpid());

  FastestRepeat best(m.shards);
  double best_traced_wall = std::numeric_limits<double>::infinity();
  double best_untraced_wall = std::numeric_limits<double>::infinity();
  std::vector<double> setup_s, init_ms, report_ms, claim_us, busy_frac,
      imbalance;
  double max_shard_ms = 0.0;
  std::uint64_t journal_bytes = 0;
  campaign::Report last;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = qb::now_ns();
  std::uint64_t pass = 0;
  for (PassClock clock(budget, kShardedPassS); clock.more(pass); ++pass) {
    const bool spans = traced && pass % 2 == 1;
    const ShardedPass p =
        sharded_pass(root / ("pass-" + std::to_string(pass)), m, threads,
                     spans ? on : off, pass);
    const campaign::Report& r = p.report;
    std::vector<std::string> faults;
    if (p.incomplete > 0) {
      faults.push_back(std::to_string(p.incomplete) + " shards incomplete");
    }
    run.judge(m.total_units(), r.failed + r.quarantined + r.skipped,
              {r.delivered, cycles, r.grants}, std::move(faults));
    last = r;
    if (spans) {
      best_traced_wall = std::min(best_traced_wall, p.wall_s);
    } else {
      best_untraced_wall = std::min(best_untraced_wall, p.wall_s);
      for (std::uint64_t k = 0; k < m.shards; ++k) best.add(k, p.shard_ms[k]);
    }
    setup_s.push_back(p.setup_s);
    init_ms.push_back(p.init_ms);
    report_ms.push_back(p.report_ms);
    claim_us.insert(claim_us.end(), p.claim_us.begin(), p.claim_us.end());
    const double busy = sum(p.busy_s);
    const double busiest = *std::max_element(p.busy_s.begin(), p.busy_s.end());
    busy_frac.push_back(busy / (threads * p.wall_s));
    imbalance.push_back(busiest / (busy / threads));
    for (const double s : p.shard_ms) max_shard_ms = std::max(max_shard_ms, s);
    journal_bytes = p.journal_bytes;
  }
  const double wall = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu0;
  std::error_code ec;
  fs::remove_all(root, ec);
  const Totals totals{last.delivered, cycles, last.grants};
  // Throughput is the fastest untraced pass, measured from the first claim
  // to the end of write_reports: pool dispatch and join, claim order and the
  // parallel finish all count.
  const double pass_s = best_untraced_wall;
  Run::note("campaign_sharded seed=" + std::to_string(run.seed()) +
            " (manifest base seed " + std::to_string(m.base_seed) + "): " +
            std::to_string(pass) + " passes of " +
            std::to_string(m.total_units()) + " units in " +
            std::to_string(m.shards) + " shards on " +
            std::to_string(threads) + " threads; witness " +
            to_string(totals) + "; " + std::to_string(last.windows) +
            " monitor windows; fastest pass " + std::to_string(pass_s) +
            " s");

  if (!traced) {
    run.end_to_end(best, pass_s, totals, setup_s);
    return;
  }

  std::map<std::string, double> lm;
  // The manifest's own first scenarios (it runs indices 0, 1, 2, ...).
  std::vector<std::uint64_t> first(kShardedAblation);
  for (std::uint64_t i = 0; i < first.size(); ++i) first[i] = i;
  ablate(Workload::CampaignDense, m.base_seed, first, run.args().seconds / 2,
         *on[0], lm);
  const auto units = static_cast<double>(m.total_units());
  lm["check.generate_us"] = mean_self_us(*on[0], "generate");
  lm["check.differential_share"] =
      static_cast<double>(differential) / static_cast<double>(m.scenarios);
  lm["check.circuit_share"] =
      static_cast<double>(circuit) / static_cast<double>(m.scenarios);
  lm["check.grants_checked"] = static_cast<double>(last.grants);
  lm["switch.delivered_packets"] = static_cast<double>(last.delivered);
  lm["switch.sim_cycles"] = static_cast<double>(cycles);
  lm["fault.faulted_share"] = static_cast<double>(last.faulted) / units;
  lm["obs.windows_checked"] = static_cast<double>(last.windows);
  lm["obs.violations"] = static_cast<double>(
      last.violations_gb + last.violations_gl + last.violations_be);
  lm["campaign.init_ms"] = qb::median(init_ms);
  lm["campaign.claim_us"] = sum(claim_us) / static_cast<double>(claim_us.size());
  lm["campaign.shard_ms_p50"] = qb::percentile(best.ms(), 50.0).value;
  lm["campaign.shard_ms_max"] = max_shard_ms;
  lm["campaign.journal_bytes_per_unit"] =
      static_cast<double>(journal_bytes) / units;
  lm["campaign.report_ms"] = qb::median(report_ms);
  lm["exec.worker_busy_frac"] = qb::median(busy_frac);
  lm["exec.imbalance"] = qb::median(imbalance);
  lm["host.cpu_per_wall"] = cpu / wall;
  lm["trace.overhead_frac"] = best_traced_wall / best_untraced_wall - 1.0;
  run.layer_metrics(lm);
  write_spans(run, {on.begin(), on.end()});
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "qosbench: " << e.what() << "\n";
    return 2;
  }
  try {
    fs::create_directories(args.state_dir);
    Run run(args);
    switch (args.workload) {
      case Workload::CampaignDense:
      case Workload::CampaignSparse:
        run_campaign(run);
        break;
      case Workload::SwitchHotspot:
        run_hotspot(run);
        break;
      case Workload::CampaignSharded:
        run_sharded(run);
        break;
    }
    run.print_result();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "qosbench: " << e.what() << "\n";
    return 1;
  }
}
