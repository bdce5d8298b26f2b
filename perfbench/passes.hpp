// One benchmark pass runs every scenario of the loaded workload suite once
// and builds the suite's metrics document.
//
// The untraced pass is what a user runs: run_scenarios with default
// SweepOptions, then build_doc and a dump of the document. The traced pass
// makes the same public calls one by one (factories, ClusterCache::acquire,
// run_kernel_on with the kernel's setup and verify spanned through a
// forwarding Kernel, estimate_power; or the System constructor and
// run_system_kernel) with a span around each, and reads the simulated
// counters from Cluster::stats() after every run.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/tracer.hpp"
#include "src/common/json.hpp"
#include "src/scenario/registry.hpp"
#include "src/scenario/runner.hpp"

namespace perfbench {

/// The simulated outcome of one scenario run, compared exactly between
/// passes and between the traced and untraced runs. The untraced run does
/// not expose Cluster::stats(), so its counters are compared through what
/// the program derives from them: the kernel metrics, the skipped cycles and
/// each power component (flops, vector and scalar words, instructions, bank
/// reads and writes, network hop words, burst beats and bursts).
struct Fingerprint {
  double cycles = 0.0;
  double flops = 0.0;
  double bytes = 0.0;
  double noc_bytes = 0.0;
  double cycles_skipped = 0.0;
  // fpu, vrf, vlsu, snitch, icn, banks, burst, static
  std::array<double, 8> power_w{};
  unsigned clusters = 0;
  bool verified = false;
  bool timed_out = false;

  bool operator==(const Fingerprint&) const = default;
  [[nodiscard]] tcdm::Json to_json() const;
};

[[nodiscard]] Fingerprint fingerprint(const tcdm::scenario::ScenarioResult& r);

/// Simulated counts summed over a pass (from Cluster::stats() after each
/// run), plus the event totals the per-event host costs divide by.
struct SimCounters {
  std::map<std::string, double> counts;  // per-layer metric name -> count
  double cluster_tile_cycles = 0.0;  // stepped cycles x tiles, cluster scenarios
  double cluster_transfers = 0.0;    // req_sent + rsp_beats, cluster scenarios
  double system_cluster_cycles = 0.0;  // stepped cycles x clusters, system scenarios
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;

  bool operator==(const SimCounters&) const = default;
};

/// The per-layer count metric names SimCounters::counts holds.
[[nodiscard]] const std::vector<std::string>& counter_names();

/// Host speed probe. The benchmark shares a host whose other tenants take
/// turns at the shared last-level cache and memory; while they do, the
/// simulator runs up to 1.5x slower, in episodes from under a second to
/// minutes, so neither a median nor a minimum over one run's passes is
/// steady from run to run. The probe, a fixed sequence of random
/// read-modify-writes over a buffer larger than a core's private caches,
/// slows in the same episodes: a pass's time divided by the time of probes
/// run between its steps is steady where the pass's time is not. Each probe
/// run leaves the core's private caches full of its own buffer, so every
/// scenario of a pass starts with them cold.
class MemoryProbe {
 public:
  static constexpr std::size_t kBytes = std::size_t{8} << 20;
  /// The probe's time on an uncontended host (4-vCPU Xeon VM, 2 MiB L2 per
  /// core, Release, GCC 12): the fixed scale that turns a probe-relative
  /// time back into seconds.
  static constexpr double kNominalS = 0.7e-3;

  MemoryProbe();
  /// One untimed run, so that what ran before does not decide how much of
  /// the buffer is cached, then one timed run; returns its seconds.
  [[nodiscard]] double run();

 private:
  std::vector<std::uint64_t> buf_;
};

struct PassResult {
  /// Host seconds of the pass, without the probe runs between its steps.
  double wall_s = 0.0;
  /// The median seconds of the probe runs after each scenario and after
  /// emission.
  double probe_s = 0.0;
  std::size_t doc_bytes = 0;  // size of the dumped metrics document
  std::vector<tcdm::scenario::ScenarioResult> results;  // selection order
  /// Empty when the metrics document was built; otherwise why it was not.
  std::string emit_error;
};

struct TracedPassResult {
  PassResult pass;
  SimCounters counters;
  std::map<std::string, double> self_s;  // layer -> self seconds in this pass
};

/// Untraced pass over `specs`, which must cover whole suites of `reg`,
/// running `probe` after every scenario and after emission.
[[nodiscard]] PassResult run_untraced_pass(
    const tcdm::scenario::ScenarioRegistry& reg,
    const std::vector<const tcdm::scenario::ScenarioSpec*>& specs, MemoryProbe& probe);

/// Traced pass; appends its spans (one "pass" root, a "scenario" span per
/// scenario, layer spans below, a "bench.probe" span after each scenario)
/// to `tracer`. It runs `probe` where the untraced pass does.
[[nodiscard]] TracedPassResult run_traced_pass(
    const tcdm::scenario::ScenarioRegistry& reg, const std::string& suite,
    const std::vector<const tcdm::scenario::ScenarioSpec*>& specs, Tracer& tracer,
    MemoryProbe& probe);

}  // namespace perfbench
