#include "perfbench/workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace perfbench {

using tcdm::Json;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Accumulates one generated suite document.
class SuiteBuilder {
 public:
  SuiteBuilder(const std::string& suite, const std::string& description,
               std::uint64_t seed)
      : seed_(seed) {
    doc_.set("schema", "tcdm-scenarios");
    doc_.set("schema_version", 1);
    doc_.set("suite", suite);
    doc_.set("description", description + " (workload seed " + std::to_string(seed) + ")");
    doc_.set("emit_by_default", false);
  }

  /// A kernel spec. At the default seed `params` is used as given, so a
  /// kernel keeps the seed its builtin registration uses; any other seed
  /// replaces the kernel seed with one drawn from the workload seed and the
  /// kernel's own parameters. Baseline and burst variants of one kernel
  /// therefore share their data, as they do in the builtin suites.
  [[nodiscard]] Json kernel(const std::string& kind, Json::Object params) const {
    if (seed_ != kDefaultSeed) {
      params.erase("seed");
      Json identity(params);
      identity.set("kind", kind);
      const std::uint64_t drawn =
          splitmix64(splitmix64(seed_) ^ fnv1a(identity.dump_compact()));
      params["seed"] = Json(static_cast<unsigned long long>(drawn & ((1ULL << 53) - 1)));
    }
    Json k(std::move(params));
    k.set("kind", kind);
    return k;
  }

  void add(const std::string& name, Json config, Json kernel, Json options,
           Json system = {}) {
    Json s;
    s.set("name", name);
    s.set("config", std::move(config));
    s.set("kernel", std::move(kernel));
    s.set("options", std::move(options));
    if (!system.is_null()) s.set("system", std::move(system));
    scenarios_.push_back(std::move(s));
  }

  [[nodiscard]] Json finish() {
    doc_.set("scenarios", Json(std::move(scenarios_)));
    return std::move(doc_);
  }

 private:
  std::uint64_t seed_;
  Json doc_;
  Json::Array scenarios_;
};

/// `{"preset": p}` plus the burst sugar block when `gf` > 0.
Json config(const std::string& preset, unsigned gf, Json::Object burst_extra = {}) {
  Json c;
  c.set("preset", preset);
  if (gf > 0) {
    burst_extra["gf"] = Json(gf);
    c.set("burst", Json(std::move(burst_extra)));
  }
  return c;
}

Json options(unsigned long long max_cycles, bool verify = true) {
  Json o;
  o.set("max_cycles", max_cycles);
  if (!verify) o.set("verify", false);
  return o;
}

std::string variant(unsigned gf) { return gf == 0 ? "baseline" : "gf" + std::to_string(gf); }

// ---------------------------------------------------------- dense_kernels --
// Table II: dotp, fft, matmul-s and matmul-l at the paper sizes on each
// testbed, baseline vs the paper's burst design point (GF4; GF2 on the
// 1024-FPU cluster). Trimmed so that a benchmark run holds about ten
// passes: on a 4-vCPU 2.1 GHz Xeon VM a pass takes 2.3-4 s where the full
// table takes about 20 s. The 256^3 matmul-l pairs of MP64/MP128 and the
// MP128 fft pair are left out, every kept point keeps its baseline/burst
// pair, and MP64/MP128 still take nearly all of the pass.

Json dense_kernels(std::uint64_t seed) {
  SuiteBuilder b("dense_kernels",
                 "Table II kernels at the paper sizes, baseline vs TCDM Burst", seed);
  struct Point {
    const char* preset;
    unsigned design_gf;
    unsigned dotp_n, fft_instances, fft_n, matmul_s, matmul_l;
    std::vector<std::string> kept;
  };
  const Point points[] = {
      {"mp4spatz4", 4, 4096, 1, 512, 16, 64, {"dotp", "fft", "matmul-s", "matmul-l"}},
      {"mp64spatz4", 4, 65536, 4, 2048, 64, 256, {"dotp", "fft", "matmul-s"}},
      {"mp128spatz8", 2, 131072, 8, 4096, 128, 256, {"dotp", "matmul-s"}},
  };
  for (const Point& p : points) {
    const std::pair<std::string, Json> kernels[] = {
        {"dotp", b.kernel("dotp", {{"n", Json(p.dotp_n)}})},
        {"fft", b.kernel("fft", {{"instances", Json(p.fft_instances)}, {"n", Json(p.fft_n)}})},
        {"matmul-s", b.kernel("matmul", {{"n", Json(p.matmul_s)}, {"row_block", Json(4)}})},
        {"matmul-l", b.kernel("matmul", {{"n", Json(p.matmul_l)}, {"row_block", Json(8)}})},
    };
    for (const auto& [label, kernel] : kernels) {
      if (std::find(p.kept.begin(), p.kept.end(), label) == p.kept.end()) continue;
      for (const unsigned gf : {0u, p.design_gf}) {
        b.add(std::string("table2/") + p.preset + "/" + variant(gf) + "/" + label,
              config(p.preset, gf), kernel, options(50'000'000));
      }
    }
  }
  return b.finish();
}

// ---------------------------------------------------------- mixed_traffic --
// ext_kernels, ablation_store, ablation_stride and trace_patterns: stores,
// store bursts, strided bursts, burst-ineligible traffic and hotspots.

void add_ext_kernels(SuiteBuilder& b) {
  struct Ext {
    const char* name;
    Json::Object small, big;
  };
  const auto hw = [](unsigned h, unsigned w) {
    return Json::Object{{"h", Json(h)}, {"w", Json(w)}};
  };
  const auto n = [](unsigned v) { return Json::Object{{"n", Json(v)}}; };
  const Ext exts[] = {
      {"gemv", {{"m", Json(32)}, {"n", Json(128)}}, {{"m", Json(256)}, {"n", Json(512)}}},
      {"conv2d", hw(34, 66), hw(130, 130)},
      {"jacobi2d", hw(34, 66), hw(130, 130)},
      {"relu", n(4096), n(65536)},
      {"maxpool2x2", hw(16, 48), hw(64, 128)},
      {"transpose", n(48), n(128)},
  };
  for (const Ext& e : exts) {
    for (const bool big : {false, true}) {
      const Json kernel = b.kernel(e.name, big ? e.big : e.small);
      for (const bool burst : {false, true}) {
        b.add(std::string("ext_kernels/") + e.name + (big ? "/mp64" : "/mp4") +
                  (burst ? "/gf4" : "/base"),
              config(big ? "mp64spatz4" : "mp4spatz4", burst ? 4 : 0), kernel,
              options(20'000'000));
      }
    }
  }
}

void add_ablation_store(SuiteBuilder& b) {
  for (const bool transpose : {false, true}) {
    const Json kernel = transpose ? b.kernel("transpose", {{"n", Json(128)}})
                                  : b.kernel("memcpy", {{"n", Json(16384)}});
    for (const unsigned req_gf : {0u, 1u, 2u, 4u}) {
      Json::Object extra;
      if (req_gf > 0) extra["store_req_gf"] = Json(req_gf);
      b.add(std::string("ablation_store/") + (transpose ? "transpose" : "memcpy") + "/st" +
                std::to_string(req_gf),
            config("mp64spatz4", 4, std::move(extra)), kernel, options(20'000'000));
    }
  }
}

void add_ablation_stride(SuiteBuilder& b) {
  for (const unsigned stride : {1u, 2u, 3u, 4u, 8u}) {
    const Json kernel =
        b.kernel("strided_copy", {{"n", Json(8192)}, {"stride_words", Json(stride)}});
    const std::pair<const char*, Json> modes[] = {
        {"base", config("mp64spatz4", 0)},
        {"gf4", config("mp64spatz4", 4)},
        {"gf4sb", config("mp64spatz4", 4, {{"strided", Json(true)}})},
    };
    for (const auto& [tag, cfg] : modes) {
      b.add("ablation_stride/s" + std::to_string(stride) + "/" + tag, cfg, kernel,
            options(20'000'000));
    }
  }
}

void add_trace_patterns(SuiteBuilder& b) {
  for (const char* pattern : {"local", "neighbor", "uniform", "hotspot"}) {
    const Json kernel = b.kernel("trace_replay", {{"pattern", Json(pattern)},
                                                  {"entries_per_hart", Json(64)},
                                                  {"seed", Json(31)}});
    for (const bool burst : {false, true}) {
      b.add(std::string("trace_patterns/") + pattern + (burst ? "/gf4" : "/base"),
            config("mp64spatz4", burst ? 4 : 0), kernel, options(20'000'000, false));
    }
  }
}

Json mixed_traffic(std::uint64_t seed) {
  SuiteBuilder b("mixed_traffic",
                 "extension kernels, store and strided ablations and synthetic "
                 "trace patterns on MP4Spatz4/MP64Spatz4",
                 seed);
  add_ext_kernels(b);
  add_ablation_store(b);
  add_ablation_stride(b);
  add_trace_patterns(b);
  return b.finish();
}

// -------------------------------------------------------- system_scaleout --
// multi_cluster_scaling: 1-8 mp4spatz4 clusters x global-barrier kind x
// inter-cluster DMA burst length, DotP 4096 per cluster.

Json system_scaleout(std::uint64_t seed) {
  SuiteBuilder b("system_scaleout",
                 "multi-cluster weak scaling over the modeled L2/NoC", seed);
  const Json kernel = b.kernel("dotp", {{"n", Json(4096)}});
  for (const unsigned clusters : {1u, 2u, 4u, 8u}) {
    for (const char* kind : {"central", "tree", "butterfly"}) {
      for (const unsigned burst_len : {8u, 32u}) {
        const std::string n = std::to_string(clusters);
        const std::string len = std::to_string(burst_len);
        Json sys;
        sys.set("name", "sys_n" + n + "_" + kind + "_b" + len);
        sys.set("num_clusters", clusters);
        sys.set("barrier_kind", kind);
        sys.set("dma_burst_len", burst_len);
        sys.set("dma_words", 256);
        b.add("multi_cluster_scaling/n" + n + "/" + kind + "/burst" + len,
              config("mp4spatz4", 0), kernel, options(20'000'000), std::move(sys));
      }
    }
  }
  return b.finish();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"dense_kernels", "mixed_traffic",
                                                 "system_scaleout"};
  return names;
}

Json generate_suite(const std::string& workload, std::uint64_t seed) {
  if (workload == "dense_kernels") return dense_kernels(seed);
  if (workload == "mixed_traffic") return mixed_traffic(seed);
  if (workload == "system_scaleout") return system_scaleout(seed);
  throw std::invalid_argument("unknown workload \"" + workload + "\"");
}

}  // namespace perfbench
