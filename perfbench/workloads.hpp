// Seeded benchmark workloads. Each workload is a tcdm-scenarios suite
// document generated from a workload seed; the driver writes it to disk and
// loads it back through the program's own scenario-file loader, so the
// simulator only ever sees the generated file.
//
// Scenario names are "<origin suite>/<origin scenario>": every scenario
// mirrors one builtin registration (same config, kernel, size and runner
// options), which is what lets the default seed be gated against that
// scenario's entry in baselines/<origin suite>.json.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/json.hpp"

namespace perfbench {

/// The seed that reproduces the builtin suites' kernel seeds exactly. Any
/// other seed re-draws every kernel seed (data values and the address
/// streams of trace-replay kernels) and so gives a held-out input set.
inline constexpr std::uint64_t kDefaultSeed = 0;

/// Every workload name, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The suite document of `workload` at `seed`; throws std::invalid_argument
/// for an unknown workload name.
[[nodiscard]] tcdm::Json generate_suite(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
