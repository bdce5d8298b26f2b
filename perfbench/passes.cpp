#include "perfbench/passes.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <iterator>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "src/analytics/power_model.hpp"
#include "src/cluster/cluster.hpp"
#include "src/cluster/cluster_cache.hpp"
#include "src/cluster/kernel_runner.hpp"
#include "src/kernels/kernel.hpp"
#include "src/scenario/emit.hpp"
#include "src/system/system.hpp"
#include "src/system/system_runner.hpp"

namespace perfbench {

using tcdm::scenario::ResultSet;
using tcdm::scenario::ScenarioRegistry;
using tcdm::scenario::ScenarioResult;
using tcdm::scenario::ScenarioSpec;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// How a per-layer count is read from a cluster's StatsRegistry: the sum of
/// every counter whose name equals `name` (exact) or ends with it (suffix).
struct CounterRule {
  const char* metric;
  const char* name;
  bool exact;
};

constexpr CounterRule kCounterRules[] = {
    {"cluster.cycles_stepped", "sim.cycles_simulated", true},
    {"cluster.cycles_skipped", "sim.cycles_skipped", true},
    {"cluster.barrier_wait_cycles", ".snitch.barrier_wait_cycles", false},
    {"spatz.vinstrs_issued", ".spatz.vinstrs_issued", false},
    {"spatz.flops", ".vfpu.flops", false},
    {"spatz.stall_mem_cycles", ".snitch.stall_mem_cycles", false},
    {"interconnect.req_sent", "network.req_sent", true},
    {"interconnect.rsp_beats", "network.rsp_beats", true},
    {"interconnect.rsp_words", "network.rsp_words", true},
    {"interconnect.egress_blocked_cycles", "network.egress_blocked_cycles", true},
    {"burst.bursts_sent", ".bursts_sent", false},
    {"burst.burst_words", ".burst_words", false},
    {"burst.store_bursts_sent", ".store_bursts_sent", false},
    {"burst.strided_bursts_sent", ".strided_bursts_sent", false},
    {"memory.reads", ".reads", false},
    {"memory.writes", ".writes", false},
    {"memory.conflict_cycles", ".conflict_cycles", false},
};
constexpr std::size_t kNumRules = std::size(kCounterRules);
constexpr std::size_t kStepped = 0;
constexpr std::size_t kReqSent = 6;
constexpr std::size_t kRspBeats = 7;
static_assert(std::string_view(kCounterRules[kStepped].metric) == "cluster.cycles_stepped");
static_assert(std::string_view(kCounterRules[kReqSent].metric) == "interconnect.req_sent");
static_assert(std::string_view(kCounterRules[kRspBeats].metric) == "interconnect.rsp_beats");

bool rule_matches(const CounterRule& rule, const std::string& name) {
  const std::string_view pat(rule.name);
  if (rule.exact) return name == pat;
  return name.size() >= pat.size() &&
         name.compare(name.size() - pat.size(), pat.size(), pat) == 0;
}

/// Sums the per-layer counts out of a StatsRegistry with one walk over its
/// values. Counter names depend only on the cluster shape, so the
/// position -> metric map is built once per shape.
class CounterReader {
 public:
  void add(const std::string& shape, const tcdm::StatsRegistry& stats,
           std::array<double, kNumRules>& sums) {
    auto it = maps_.find(shape);
    if (it == maps_.end()) {
      std::vector<int> map;
      for (const auto& [name, value] : stats.snapshot()) {
        int index = -1;
        for (std::size_t r = 0; r < kNumRules && index < 0; ++r) {
          if (rule_matches(kCounterRules[r], name)) index = static_cast<int>(r);
        }
        map.push_back(index);
      }
      it = maps_.emplace(shape, std::move(map)).first;
    }
    stats.values(values_);
    for (std::size_t i = 0; i < values_.size() && i < it->second.size(); ++i) {
      if (it->second[i] >= 0) sums[static_cast<std::size_t>(it->second[i])] += values_[i];
    }
  }

 private:
  std::map<std::string, std::vector<int>> maps_;
  std::vector<double> values_;
};

/// Per-pass accumulation state of the traced pass.
struct TracedState {
  explicit TracedState(Tracer& t) : tracer(t) {}

  Tracer& tracer;
  tcdm::ClusterCache cache;
  CounterReader reader;
  std::array<double, kNumRules> sums{};
  SimCounters counters;  // counts are filled from `sums` when the pass ends
};

/// Forwards to the scenario's kernel, with a span around setup() and
/// verify(), so tcdm::run_kernel_on runs unchanged inside a cluster.run span
/// whose self time excludes both.
class TracedKernel final : public tcdm::Kernel {
 public:
  TracedKernel(std::unique_ptr<tcdm::Kernel> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(&tracer) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string size_desc() const override { return inner_->size_desc(); }
  void setup(tcdm::Cluster& cluster) override {
    Tracer::Span s(tracer_, "kernels.setup");
    inner_->setup(cluster);
  }
  [[nodiscard]] bool verify(const tcdm::Cluster& cluster) const override {
    Tracer::Span s(tracer_, "kernels.verify");
    return inner_->verify(cluster);
  }
  [[nodiscard]] double traffic_bytes(const tcdm::Cluster& cluster) const override {
    return inner_->traffic_bytes(cluster);
  }

 private:
  std::unique_ptr<tcdm::Kernel> inner_;
  Tracer* tracer_;
};

tcdm::Cluster& traced_acquire(TracedState& st, const tcdm::ClusterConfig& cfg,
                             const tcdm::SimOptions& sim) {
  const std::size_t misses = st.cache.misses();
  Tracer::Span s(&st.tracer, "cluster.reset");
  tcdm::Cluster& cluster = st.cache.acquire(cfg, sim);
  if (st.cache.misses() != misses) s.rename("cluster.construct");
  return cluster;
}

void run_cluster_scenario(const ScenarioSpec& spec, TracedState& st, ScenarioResult& r) {
  tcdm::ClusterConfig cfg;
  std::unique_ptr<tcdm::Kernel> kernel;
  {
    Tracer::Span s(&st.tracer, "kernels.construct");
    cfg = spec.config();
    kernel = std::make_unique<TracedKernel>(spec.kernel(), st.tracer);
  }
  tcdm::Cluster& cluster = traced_acquire(st, cfg, spec.opts.sim);
  {
    Tracer::Span s(&st.tracer, "cluster.run");
    r.metrics = tcdm::run_kernel_on(cluster, *kernel, spec.opts);
  }
  {
    Tracer::Span s(&st.tracer, "analytics.power");
    r.power = tcdm::estimate_power(cluster, r.metrics.cycles, cfg.freq_tt_mhz);
  }
  r.sim_cycles_skipped = cluster.cycles_skipped();

  Tracer::Span s(&st.tracer, "bench.counters");
  std::array<double, kNumRules> sums{};
  st.reader.add(tcdm::ClusterCache::cache_key(cfg, spec.opts.sim), cluster.stats(), sums);
  for (std::size_t i = 0; i < kNumRules; ++i) st.sums[i] += sums[i];
  st.counters.cluster_tile_cycles += sums[kStepped] * cluster.num_tiles();
  st.counters.cluster_transfers += sums[kReqSent] + sums[kRspBeats];
}

void run_system_scenario(const ScenarioSpec& spec, TracedState& st, ScenarioResult& r) {
  tcdm::ClusterConfig cfg;
  tcdm::SystemConfig syscfg;
  std::vector<std::unique_ptr<tcdm::Kernel>> kernels;
  {
    Tracer::Span s(&st.tracer, "kernels.construct");
    cfg = spec.config();
    syscfg = spec.system();
    for (unsigned c = 0; c < syscfg.num_clusters; ++c) kernels.push_back(spec.kernel());
  }
  std::optional<tcdm::System> system;
  {
    Tracer::Span s(&st.tracer, "system.construct");
    system.emplace(syscfg, cfg, spec.opts.sim);
  }
  {
    Tracer::Span s(&st.tracer, "system.run");
    r.metrics = tcdm::run_system_kernel(*system, kernels, spec.opts);
  }
  {
    Tracer::Span s(&st.tracer, "analytics.power");
    r.power = tcdm::estimate_system_power(*system, r.metrics.cycles, cfg.freq_tt_mhz);
  }
  r.sim_cycles_skipped = system->cycles_skipped();

  {
    Tracer::Span s(&st.tracer, "bench.counters");
    const std::string shape = tcdm::ClusterCache::cache_key(cfg, spec.opts.sim);
    for (unsigned c = 0; c < system->num_clusters(); ++c) {
      std::array<double, kNumRules> sums{};
      st.reader.add(shape, system->cluster(c).stats(), sums);
      for (std::size_t i = 0; i < kNumRules; ++i) st.sums[i] += sums[i];
      st.counters.system_cluster_cycles += sums[kStepped];
    }
    st.counters.counts["system.noc_bytes"] += system->noc_bytes_transferred();
  }
  Tracer::Span s(&st.tracer, "system.teardown");
  system.reset();
}

ScenarioResult traced_scenario(const ScenarioSpec& spec, TracedState& st) {
  Tracer::Span s(&st.tracer, "scenario", spec.name);
  ScenarioResult r;
  r.name = spec.name;
  r.rel = spec.rel();
  try {
    if (spec.system) {
      run_system_scenario(spec, st, r);
    } else {
      run_cluster_scenario(spec, st, r);
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

/// Builds the suite document and dumps it; returns the dump's size.
std::size_t emit(const ScenarioRegistry& reg, const std::string& suite, const ResultSet& rs) {
  return tcdm::scenario::build_doc(reg, suite, rs).to_json().dump().size();
}

}  // namespace

tcdm::Json Fingerprint::to_json() const {
  tcdm::Json j;
  j.set("cycles", cycles);
  j.set("flops", flops);
  j.set("bytes", bytes);
  j.set("noc_bytes", noc_bytes);
  j.set("cycles_skipped", cycles_skipped);
  tcdm::Json::Array power;
  for (const double w : power_w) power.emplace_back(w);
  j.set("power_w", tcdm::Json(std::move(power)));
  j.set("clusters", clusters);
  j.set("verified", verified);
  j.set("timed_out", timed_out);
  return j;
}

Fingerprint fingerprint(const ScenarioResult& r) {
  Fingerprint f;
  f.cycles = static_cast<double>(r.metrics.cycles);
  f.flops = r.metrics.flops;
  f.bytes = r.metrics.bytes;
  f.noc_bytes = r.metrics.noc_bytes;
  f.cycles_skipped = static_cast<double>(r.sim_cycles_skipped);
  const tcdm::PowerBreakdown& p = r.power;
  f.power_w = {p.fpu_w, p.vrf_w,   p.vlsu_w,  p.snitch_w,
               p.icn_w, p.banks_w, p.burst_w, p.static_w};
  f.clusters = r.metrics.clusters;
  f.verified = r.metrics.verified;
  f.timed_out = r.metrics.timed_out;
  return f;
}

const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const CounterRule& rule : kCounterRules) out.emplace_back(rule.metric);
    out.emplace_back("system.noc_bytes");
    return out;
  }();
  return names;
}

MemoryProbe::MemoryProbe() : buf_(kBytes / sizeof(std::uint64_t), 1) {}

double MemoryProbe::run() {
  static_assert((kBytes & (kBytes - 1)) == 0, "the probe indexes its buffer by mask");
  constexpr int kAccesses = 200'000;
  const std::uint64_t mask = buf_.size() - 1;
  double timed = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 1;
    for (int i = 0; i < kAccesses; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      buf_[(x >> 32) & mask] += x;
    }
    timed = seconds_since(t0);
  }
  return timed;
}

namespace {

/// The probe runs between the steps of one pass, kept out of the pass's time.
class ProbeLog {
 public:
  explicit ProbeLog(MemoryProbe& probe) : probe_(probe) {}

  void run() {
    const auto t0 = std::chrono::steady_clock::now();
    runs_.push_back(probe_.run());
    probing_s_ += seconds_since(t0);
  }
  /// Fills the pass's wall_s (the `elapsed_s` since its start, less the
  /// probe runs) and probe_s.
  void finish(double elapsed_s, PassResult& p) {
    p.wall_s = elapsed_s - probing_s_;
    std::nth_element(runs_.begin(), runs_.begin() + runs_.size() / 2, runs_.end());
    p.probe_s = runs_[runs_.size() / 2];
  }

 private:
  MemoryProbe& probe_;
  std::vector<double> runs_;
  double probing_s_ = 0.0;
};

}  // namespace

PassResult run_untraced_pass(const ScenarioRegistry& reg,
                             const std::vector<const ScenarioSpec*>& specs, MemoryProbe& probe) {
  PassResult p;
  ProbeLog probes(probe);
  const auto t0 = std::chrono::steady_clock::now();
  // Serial sweep with default host options; the progress callback only runs
  // the probe.
  tcdm::scenario::SweepOptions opts;
  opts.on_done = [&](const ScenarioResult&) { probes.run(); };
  auto grouped = tcdm::scenario::group_by_suite(tcdm::scenario::run_scenarios(specs, opts));
  try {
    for (const auto& [name, rs] : grouped) p.doc_bytes += emit(reg, name, rs);
  } catch (const std::exception& e) {
    p.emit_error = e.what();
  }
  const double elapsed = seconds_since(t0);
  probes.run();
  probes.finish(elapsed, p);
  for (const auto& [name, rs] : grouped) {
    p.results.insert(p.results.end(), rs.all().begin(), rs.all().end());
  }
  return p;
}

TracedPassResult run_traced_pass(const ScenarioRegistry& reg, const std::string& suite,
                                 const std::vector<const ScenarioSpec*>& specs,
                                 Tracer& tracer, MemoryProbe& probe) {
  TracedPassResult out;
  const std::size_t first = tracer.records().size();
  ResultSet rs;
  ProbeLog probes(probe);
  const auto t0 = std::chrono::steady_clock::now();
  {
    Tracer::Span pass(&tracer, "pass", suite);
    TracedState st(tracer);
    for (const ScenarioSpec* spec : specs) {
      rs.add(traced_scenario(*spec, st));
      Tracer::Span s(&tracer, "bench.probe");
      probes.run();
    }
    {
      Tracer::Span s(&tracer, "bench.counters");
      for (std::size_t i = 0; i < kNumRules; ++i) {
        st.counters.counts[kCounterRules[i].metric] = st.sums[i];
      }
      out.counters = std::move(st.counters);
      out.counters.cache_hits = st.cache.hits();
      out.counters.cache_misses = st.cache.misses();
    }
    {
      Tracer::Span s(&tracer, "cluster.teardown");
      st.cache = tcdm::ClusterCache();
    }
    Tracer::Span s(&tracer, "analytics.emit");
    try {
      out.pass.doc_bytes = emit(reg, suite, rs);
    } catch (const std::exception& e) {
      out.pass.emit_error = e.what();
    }
  }
  const double elapsed = seconds_since(t0);
  probes.run();
  probes.finish(elapsed, out.pass);
  out.pass.results = rs.all();
  out.self_s = tracer.self_seconds(first);
  return out;
}

}  // namespace perfbench
