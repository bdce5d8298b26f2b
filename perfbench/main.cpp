// perfbench_driver: the measuring half of the repository benchmark
// (perfbench/run.py builds it and forwards its output).
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --out-dir D [--baselines DIR] [--git-commit C]
//                    [--source-sha256 H]
//
// The driver generates workload W's suite file from seed N into D, loads it
// through the scenario-file loader (timed: setup_s), then runs whole passes
// over the suite until S seconds are used (at least one round). --trace 0
// measures the end-to-end metrics from untraced passes; --trace 1 alternates
// untraced and traced passes and reports the per-layer metrics plus the
// tracing overhead. Pass times are taken relative to a memory probe run
// between the scenarios of every pass (see MemoryProbe). Every scenario run
// is checked; the last stdout line is one JSON object with the keys correct,
// attempted, failed and metrics. Single-threaded throughout: default
// SweepOptions host settings (only a progress callback, which runs the
// probe, is set), event stepping, no thread-count overrides.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "perfbench/passes.hpp"
#include "perfbench/tracer.hpp"
#include "perfbench/workloads.hpp"
#include "src/analytics/metrics_regression.hpp"
#include "src/scenario/builtin.hpp"
#include "src/scenario/scenario_file.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using tcdm::Json;
using tcdm::scenario::ScenarioRegistry;
using tcdm::scenario::ScenarioResult;
using tcdm::scenario::ScenarioSpec;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string baselines = "baselines";
  std::string git_commit = "unknown";
  std::string source_sha256 = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload W --seed N --seconds S --trace 0|1\n"
               "         --out-dir D [--baselines DIR] [--git-commit C] "
               "[--source-sha256 H]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-') {
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string val = argv[++i];
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, val);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_uint(flag, val));
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") usage("--trace expects 0 or 1");
      a.trace = val == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = val;
      have_out = true;
    } else if (flag == "--baselines") {
      a.baselines = val;
    } else if (flag == "--git-commit") {
      a.git_commit = val;
    } else if (flag == "--source-sha256") {
      a.source_sha256 = val;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown or missing --workload '" + a.workload + "'");
  }
  if (!have_out) usage("missing --out-dir");
  return a;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Json samples_json(const std::vector<double>& v) {
  Json::Array a;
  for (const double x : v) a.emplace_back(x);
  return Json(std::move(a));
}

void write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

// ----------------------------------------------------------------- checks --

/// Judges every scenario run; a run with any failure reason counts as one
/// failed operation.
class Checker {
 public:
  Checker(const std::vector<const ScenarioSpec*>& specs, bool gate_baselines,
          std::string baseline_dir)
      : gate_baselines_(gate_baselines), baseline_dir_(std::move(baseline_dir)) {
    for (const ScenarioSpec* spec : specs) {
      peak_bw_.push_back(spec->config().vlsu_peak_bw());
      expect_verified_.push_back(spec->opts.verify && spec->expect_verified);
    }
    reference_.resize(specs.size());
    if (gate_baselines_) tcdm::scenario::register_builtin();
  }

  /// Checks run `r` of scenario `index`; `fp` must be fingerprint(r).
  [[nodiscard]] std::vector<std::string> check(std::size_t index, const ScenarioResult& r,
                                               const Fingerprint& fp) {
    std::vector<std::string> why;
    if (!r.ok()) why.push_back("run error: " + r.error);
    if (fp.timed_out) why.push_back("timed out after " + std::to_string(fp.cycles) + " cycles");
    if (expect_verified_[index] && !fp.verified) why.push_back("golden verification failed");
    const double tol = 1.0 + 1e-9;
    if (!(r.metrics.bw_per_core <= peak_bw_[index] * tol)) {
      why.push_back("per-core bandwidth " + std::to_string(r.metrics.bw_per_core) +
                    " B/cycle exceeds the VLSU peak " + std::to_string(peak_bw_[index]));
    }
    if (!(r.metrics.fpu_util <= tol)) {
      why.push_back("fpu_util " + std::to_string(r.metrics.fpu_util) + " exceeds 1");
    }
    if (!reference_[index]) {
      reference_[index] = fp;
    } else if (!(*reference_[index] == fp)) {
      why.push_back("simulated result differs from the first run: " +
                    fp.to_json().dump_compact() + " vs " +
                    reference_[index]->to_json().dump_compact());
    }
    if (gate_baselines_) {
      const std::string b = baseline_mismatch(r);
      if (!b.empty()) why.push_back(b);
    }
    return why;
  }

  [[nodiscard]] const std::vector<std::optional<Fingerprint>>& references() const {
    return reference_;
  }

 private:
  /// Compares the run with its origin scenario's entries in
  /// baselines/<origin suite>.json, emitting the metrics exactly as the
  /// origin builtin registration does. Empty when they agree.
  std::string baseline_mismatch(const ScenarioResult& r) {
    const std::string origin = r.rel;  // "<origin suite>/<origin rel>"
    const auto slash = origin.find('/');
    const std::string suite = origin.substr(0, slash);
    const std::string rel = origin.substr(slash + 1);
    const ScenarioSpec* builtin = ScenarioRegistry::instance().find(origin);
    if (builtin == nullptr) return "no builtin scenario " + origin + " to gate against";

    auto it = baselines_.find(suite);
    if (it == baselines_.end()) {
      std::optional<tcdm::metrics::MetricsDoc> doc;
      try {
        doc = tcdm::metrics::MetricsDoc::read_file(baseline_dir_ + "/" + suite + ".json");
      } catch (const std::exception& e) {
        baseline_errors_[suite] = e.what();
      }
      it = baselines_.emplace(suite, std::move(doc)).first;
    }
    if (!it->second) return "baseline for " + suite + ": " + baseline_errors_[suite];

    tcdm::metrics::MetricsDoc expected;
    for (const auto& [name, metric] : it->second->metrics) {
      if (name.compare(0, rel.size() + 1, rel + "/") == 0) expected.metrics[name] = metric;
    }
    if (expected.metrics.empty()) return "no baseline entries for " + origin;

    ScenarioResult as_builtin = r;
    as_builtin.name = origin;
    as_builtin.rel = rel;
    tcdm::metrics::MetricsDoc current;
    if (builtin->emit) {
      builtin->emit(as_builtin, current);
    } else {
      current.add_kernel_metrics(rel, as_builtin.metrics);
    }
    const tcdm::metrics::CompareResult cmp = tcdm::metrics::compare(expected, current);
    if (cmp.passed()) return {};
    return "differs from baselines/" + suite + ".json:\n" +
           tcdm::metrics::render_delta_table(cmp);
  }

  bool gate_baselines_;
  std::string baseline_dir_;
  std::vector<double> peak_bw_;
  std::vector<bool> expect_verified_;
  std::vector<std::optional<Fingerprint>> reference_;
  std::map<std::string, std::optional<tcdm::metrics::MetricsDoc>> baselines_;
  std::map<std::string, std::string> baseline_errors_;
};

/// Failure accounting over every scenario run of the process.
struct Accounting {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> reasons;  // first few, for the report

  void record(const std::string& scenario, const std::vector<std::string>& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    for (const std::string& w : why) {
      if (reasons.size() < 20) reasons.push_back(scenario + ": " + w);
    }
  }

  void account(Checker& checker, const PassResult& p) {
    bool any_failed = false;
    for (std::size_t i = 0; i < p.results.size(); ++i) {
      const ScenarioResult& r = p.results[i];
      const auto why = checker.check(i, r, fingerprint(r));
      any_failed = any_failed || !why.empty();
      record(r.name, why);
    }
    // build_doc refuses failed results; a refusal with no failed scenario
    // is a failure of its own.
    if (!p.emit_error.empty() && !any_failed) {
      ++failed;
      if (reasons.size() < 20) reasons.push_back("metrics document: " + p.emit_error);
    }
  }
};

// ---------------------------------------------------------------- metrics --

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

Json metrics_json(const std::vector<MetricOut>& metrics) {
  Json m;
  for (const MetricOut& x : metrics) {
    Json v;
    v.set("value", x.value);
    v.set("unit", x.unit);
    m.set(x.name, std::move(v));
  }
  return m;
}

/// The process's resident-set high-water mark (VmHWM). getrusage's
/// ru_maxrss is not used: it keeps the peak of the parent process image an
/// exec replaced, so under a launcher it reports the launcher's memory.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Spans that belong to the benchmark rather than to a simulator layer.
bool is_bench_span(const std::string& layer) {
  return layer == "pass" || layer == "scenario" || layer.rfind("bench.", 0) == 0;
}

const char* const kLayerSpans[] = {
    "kernels.construct", "cluster.construct", "cluster.reset",   "kernels.setup",
    "cluster.run",       "kernels.verify",    "cluster.teardown", "system.construct",
    "system.run",        "system.teardown",   "analytics.power", "analytics.emit",
};

int run(const Args& args) {
  namespace fs = std::filesystem;
  const auto t_start = std::chrono::steady_clock::now();
  fs::create_directories(args.out_dir);
  const std::string stem = args.workload + "-seed" + std::to_string(args.seed);

  Json host;
  cpu_set_t affinity;
  const int nproc = sched_getaffinity(0, sizeof(affinity), &affinity) == 0
                        ? CPU_COUNT(&affinity)
                        : -1;
  host.set("nproc", nproc);
  host.set("hardware_concurrency", std::thread::hardware_concurrency());
  host.set("compiler", PERFBENCH_COMPILER);
  host.set("build_type", PERFBENCH_BUILD_TYPE);
  host.set("git_commit", args.git_commit);
  host.set("source_sha256", args.source_sha256);
  std::printf("host %s\n", host.dump_compact().c_str());

  // Generate the workload and write it beside the results for replay.
  const fs::path suite_path = fs::path(args.out_dir) / (stem + ".suite.json");
  write_text(suite_path, generate_suite(args.workload, args.seed).dump());

  // setup_s: load + expand + validate the suite file into a fresh registry,
  // up to the first scenario. One sample is a batch of loads at least
  // kSetupBatchS long, divided by its load count, so a sample rises above
  // host timer and scheduling jitter, with a probe run before and after it.
  // Batches run at the start and after every round of passes.
  MemoryProbe probe;
  Tracer tracer;
  Tracer* const setup_tracer = args.trace ? &tracer : nullptr;
  std::vector<double> setup_samples;
  std::vector<double> setup_probes;
  struct Loaded {
    std::unique_ptr<ScenarioRegistry> reg;
    std::string suite;
    std::vector<const ScenarioSpec*> specs;
  };
  const auto load = [&] {
    Loaded l{std::make_unique<ScenarioRegistry>(), {}, {}};
    Tracer::Span s(setup_tracer, "scenario.load", suite_path.string());
    l.suite = tcdm::scenario::register_suite_file(*l.reg, suite_path.string());
    l.specs = l.reg->suite_scenarios(l.suite);
    return l;
  };
  constexpr double kSetupBatchS = 0.025;
  const auto setup_batch = [&] {
    const double before = probe.run();
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t loads = 0;
    do {
      (void)load();
      ++loads;
    } while (seconds_since(t0) < kSetupBatchS);
    setup_samples.push_back(seconds_since(t0) / static_cast<double>(loads));
    setup_probes.push_back(0.5 * (before + probe.run()));
  };
  const Loaded loaded = load();
  constexpr int kFirstSetupBatches = 4;
  for (int i = 0; i < kFirstSetupBatches; ++i) setup_batch();
  const ScenarioRegistry& reg = *loaded.reg;
  const std::string& suite = loaded.suite;
  const std::vector<const ScenarioSpec*>& specs = loaded.specs;
  if (specs.empty()) throw std::runtime_error("generated suite has no scenarios");

  Checker checker(specs, args.seed == kDefaultSeed, args.baselines);
  Accounting acct;
  const double budget = args.seconds;
  const auto t_measure = std::chrono::steady_clock::now();
  const auto time_left = [&](double next_cost) {
    // Hard stop well inside the 175 s run.py allows one driver run.
    return seconds_since(t_measure) + next_cost <= budget &&
           seconds_since(t_start) + next_cost < 150.0;
  };

  std::vector<double> untraced_walls;
  std::vector<double> untraced_probes;
  std::vector<double> traced_walls;
  std::vector<double> traced_probes;
  std::vector<double> coverage;
  std::map<std::string, std::vector<double>> layer_samples;
  std::optional<SimCounters> counters;
  bool counters_stable = true;
  std::map<std::string, std::vector<double>> scenario_s;  // traced per-scenario time

  const auto untraced = [&] {
    const PassResult u = run_untraced_pass(reg, specs, probe);
    acct.account(checker, u);
    untraced_walls.push_back(u.wall_s);
    untraced_probes.push_back(u.probe_s);
  };
  const auto traced = [&] {
    const std::size_t first = tracer.records().size();
    const TracedPassResult t = run_traced_pass(reg, suite, specs, tracer, probe);
    acct.account(checker, t.pass);
    traced_walls.push_back(t.pass.wall_s);
    traced_probes.push_back(t.pass.probe_s);
    double layers = 0.0;
    for (const auto& [layer, self] : t.self_s) {
      if (!is_bench_span(layer)) layers += self;
    }
    coverage.push_back(layers / t.pass.wall_s);
    for (const char* layer : kLayerSpans) {
      layer_samples[layer].push_back(t.self_s.count(layer) ? t.self_s.at(layer) : 0.0);
    }
    for (std::size_t i = first; i < tracer.records().size(); ++i) {
      const Tracer::Record& rec = tracer.records()[i];
      if (std::string_view(rec.layer) == "scenario") {
        scenario_s[rec.detail].push_back(static_cast<double>(rec.end_ns - rec.start_ns) *
                                          1e-9);
      }
    }
    if (!counters) {
      counters = t.counters;
    } else if (!(*counters == t.counters)) {
      counters_stable = false;
    }
  };

  // A traced round runs one untraced and one traced pass, alternating which
  // goes first so neither side always runs on a warmer host.
  for (unsigned round = 0;; ++round) {
    const auto t_round = std::chrono::steady_clock::now();
    if (args.trace && round % 2 == 1) traced();
    untraced();
    if (args.trace && round % 2 == 0) traced();
    setup_batch();
    if (!time_left(seconds_since(t_round))) break;
  }
  if (!counters_stable) {
    ++acct.failed;
    acct.reasons.push_back("simulated counters differ between traced passes");
  }

  // ------------------------------------------------------------ report --
  const std::size_t n_scen = specs.size();
  double cluster_cycles = 0.0;  // sum of cycles x clusters over the suite
  for (const auto& ref : checker.references()) {
    if (ref) cluster_cycles += ref->cycles * ref->clusters;
  }
  // Host times are taken relative to the memory probe runs next to them and
  // scaled back to seconds by the probe's nominal time (see MemoryProbe).
  // wall_s is the median untraced pass. setup_s is the lower quartile of the
  // load batches, which measured steadier from run to run than their median
  // or minimum: a batch's two probe runs are short, and now and then one of
  // them is disturbed on its own.
  const auto relative = [](const std::vector<double>& samples, const std::vector<double>& probes) {
    std::vector<double> rel;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      rel.push_back(samples[i] / probes[i] * MemoryProbe::kNominalS);
    }
    return rel;
  };
  const double wall = median(relative(untraced_walls, untraced_probes));
  std::vector<double> setup_rel = relative(setup_samples, setup_probes);
  std::nth_element(setup_rel.begin(), setup_rel.begin() + setup_rel.size() / 4, setup_rel.end());
  const double setup = setup_rel[setup_rel.size() / 4];
  std::vector<MetricOut> out;
  if (!args.trace) {
    out.push_back({"wall_s", wall, "s"});
    out.push_back({"sim_cycles_per_s", cluster_cycles / wall, "cycles/s"});
    out.push_back({"setup_s", setup, "s"});
    // The probe's buffer is resident for the whole run; it is not the program's.
    out.push_back({"peak_rss_mib",
                   peak_rss_mib() - static_cast<double>(MemoryProbe::kBytes) / (1 << 20), "MiB"});
  } else {
    out.push_back({"scenario.load_s", setup, "s"});
    for (const char* layer : kLayerSpans) {
      out.push_back({std::string(layer) + "_s", median(layer_samples[layer]), "s"});
    }
    const SimCounters c = counters.value_or(SimCounters{});
    const auto per = [](double s, double events) { return events > 0 ? s * 1e9 / events : 0.0; };
    const double run_s = median(layer_samples["cluster.run"]);
    out.push_back({"cluster.ns_per_tile_cycle", per(run_s, c.cluster_tile_cycles), "ns"});
    out.push_back({"interconnect.ns_per_transfer", per(run_s, c.cluster_transfers), "ns"});
    out.push_back({"system.ns_per_cluster_cycle",
                   per(median(layer_samples["system.run"]), c.system_cluster_cycles), "ns"});
    const auto count = [&c](const std::string& name) {
      const auto it = c.counts.find(name);
      return it == c.counts.end() ? 0.0 : it->second;
    };
    const double stepped = count("cluster.cycles_stepped");
    const double skipped = count("cluster.cycles_skipped");
    out.push_back({"cluster.skip_ratio",
                   stepped + skipped > 0 ? skipped / (stepped + skipped) : 0.0, "ratio"});
    const double lookups = static_cast<double>(c.cache_hits + c.cache_misses);
    out.push_back({"cluster.cache_hit_ratio",
                   lookups > 0 ? static_cast<double>(c.cache_hits) / lookups : 0.0, "ratio"});
    for (const std::string& name : counter_names()) {
      out.push_back({name, count(name), name == "system.noc_bytes" ? "B" : "count"});
    }
    out.push_back({"trace.overhead_ratio",
                   median(relative(traced_walls, traced_probes)) / wall - 1.0, "ratio"});
    out.push_back({"trace.coverage", median(coverage), "ratio"});
  }

  std::printf("workload %s seed %llu: %zu scenarios, %zu untraced + %zu traced passes, "
              "%zu setups\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), n_scen,
              untraced_walls.size(), traced_walls.size(), setup_samples.size());
  std::printf("memory probe: median %.6g s over the passes, nominal %.6g s\n",
              median(untraced_probes), MemoryProbe::kNominalS);
  // The raw samples behind each host timing are summarised beside it.
  const auto spread = [](const char* what, const std::vector<double>& v) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return std::string("  (") + what + " of " + std::to_string(v.size()) + ": median " +
           std::to_string(median(v)) + ", min " + std::to_string(*lo) + ", max " +
           std::to_string(*hi) + ")";
  };
  for (const MetricOut& m : out) {
    std::string note;
    if (m.name == "wall_s") note = spread("whole passes", untraced_walls);
    if (m.name == "setup_s" || m.name == "scenario.load_s") {
      note = spread("load batches", setup_samples);
    }
    std::printf("  %-36s %.6g %s%s\n", m.name.c_str(), m.value, m.unit.c_str(), note.c_str());
  }
  std::printf("scenarios attempted %zu failed %zu\n", acct.attempted, acct.failed);
  for (const std::string& r : acct.reasons) std::fprintf(stderr, "FAILED %s\n", r.c_str());

  // Full record beside the generated suite.
  Json report;
  report.set("host", host);
  report.set("workload", args.workload);
  report.set("seed", static_cast<unsigned long long>(args.seed));
  report.set("trace", args.trace);
  report.set("suite_file", suite_path.filename().string());
  report.set("scenarios", static_cast<unsigned long long>(n_scen));
  report.set("untraced_wall_s", samples_json(untraced_walls));
  report.set("traced_wall_s", samples_json(traced_walls));
  report.set("traced_probe_s", samples_json(traced_probes));
  report.set("untraced_probe_s", samples_json(untraced_probes));
  report.set("setup_s", samples_json(setup_samples));
  report.set("setup_probe_s", samples_json(setup_probes));
  report.set("metrics", metrics_json(out));
  report.set("attempted", static_cast<unsigned long long>(acct.attempted));
  report.set("failed", static_cast<unsigned long long>(acct.failed));
  Json::Array reasons;
  for (const std::string& r : acct.reasons) reasons.emplace_back(r);
  report.set("failures", Json(std::move(reasons)));
  Json fps;
  for (std::size_t i = 0; i < n_scen; ++i) {
    const auto& ref = checker.references()[i];
    if (ref) fps.set(specs[i]->name, ref->to_json());
  }
  report.set("fingerprints", fps);
  if (args.trace) {
    Json per_scenario;
    for (const auto& [name, v] : scenario_s) per_scenario.set(name, median(v));
    report.set("scenario_median_s", per_scenario);
    write_text(fs::path(args.out_dir) / (stem + ".trace.json"),
               tracer.chrome_trace().dump_compact());
  }
  write_text(fs::path(args.out_dir) / (stem + "-trace" + (args.trace ? "1" : "0") + ".json"),
             report.dump());

  Json line;
  line.set("correct", acct.failed == 0);
  line.set("attempted", static_cast<unsigned long long>(acct.attempted));
  line.set("failed", static_cast<unsigned long long>(acct.failed));
  line.set("metrics", metrics_json(out));
  std::printf("%s\n", line.dump_compact().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
