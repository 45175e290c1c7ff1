// cipbench: one benchmark for the paper flow, state-space exploration and
// `cipnet serve` over TCP.
//
//   cipbench --workload flow|explore|serve_mixed|serve_hot --seed N
//            --seconds S --trace 0|1
//
// Builds the workload's inputs from the seed, measures for S seconds,
// checks every answer against a reference, and prints one JSON line on
// stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones
// (BENCHMARK.json lists both). Exits 1 on a wrong answer, 2 on bad usage.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "util/json_writer.h"
#include "workloads.h"

namespace cipbench {
namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"throughput_per_s", "1/s"},
      {"p50_ms", "ms"},          {"p90_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

/// Every per-layer metric, on every workload: a layer the workload does
/// not reach reads 0.
const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> out = {{"trace_overhead", "%"},
                                   {"layer_coverage", "%"}};
    for (const char* span :
         {"cip.validate", "cip.expand", "cip.expanded_composition",
          "circuit.compose", "circuit.receptive",
          "circuit.receptive_structural", "circuit.simplify",
          "stg.initial_encoding", "stg.state_graph", "stg.coding",
          "synth.qm", "petri.structurally_safe", "reach.explore",
          "reach.deadlock", "reach.safe", "reach.dead_transitions",
          "reach.live"}) {
      out.push_back({std::string(span) + ".calls", "count"});
      out.push_back({std::string(span) + ".busy_s", "s"});
    }
    for (const char* count :
         {"circuit.sync_checked", "circuit.failures", "circuit.dead_removed",
          "synth.literals", "cip.lang_mismatches",
          "circuit.reduced_mismatches", "reach.states"}) {
      out.push_back({count, "count"});
    }
    for (const char* engine :
         {"reach.dense_t1_states_per_s", "reach.dense_t4_states_per_s",
          "reach.packed_t1_states_per_s", "reach.packed_t4_states_per_s"}) {
      out.push_back({engine, "1/s"});
    }
    for (const char* phase : {"svc.queue_wait_us", "svc.cache_lookup_us",
                              "svc.exec_us", "svc.serialize_us",
                              "net.overhead_us"}) {
      out.push_back({std::string(phase) + "_p50", "us"});
      out.push_back({std::string(phase) + "_p99", "us"});
    }
    for (const char* op : {"reach", "cover", "hide", "synth"}) {
      out.push_back({std::string("svc.exec_us_p50.") + op, "us"});
    }
    out.push_back({"svc.cache_hit_ratio", "%"});
    out.push_back({"gen.late_p99_us", "us"});
    out.push_back({"gen.achieved_rps", "1/s"});
    return out;
  }();
  return specs;
}

int usage() {
  std::fprintf(stderr,
               "usage: cipbench --workload flow|explore|serve_mixed|serve_hot "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

/// The result line in catalogue order. Throws on a metric outside the
/// catalogue, a unit mismatch, or a missing end-to-end metric: all are
/// bugs in the benchmark itself.
std::string result_line(const Outcome& out, bool trace) {
  const auto& specs = trace ? per_layer_metrics() : end_to_end_metrics();
  for (const Metric& m : out.metrics.entries()) {
    const auto spec = std::find_if(specs.begin(), specs.end(),
                                   [&](const MetricSpec& s) { return s.name == m.name; });
    if (spec == specs.end()) throw std::logic_error("metric " + m.name + " is not catalogued");
    if (spec->unit != m.unit) {
      throw std::logic_error("metric " + m.name + " has unit " + m.unit + ", expected " +
                             spec->unit);
    }
  }
  cipnet::json::Writer w;
  w.begin_object();
  w.member("correct", out.failed == 0 && out.attempted > 0);
  w.member("attempted", out.attempted);
  w.member("failed", out.failed);
  w.key("metrics").begin_object();
  for (const MetricSpec& spec : specs) {
    const Metric* m = out.metrics.find(spec.name);
    if (!m && !trace) throw std::logic_error("end-to-end metric " + spec.name + " missing");
    const double value = m ? m->value : 0;
    std::fprintf(stderr, "  %-34s %16.6f %s\n", spec.name.c_str(), value, spec.unit.c_str());
    w.key(spec.name).begin_object();
    w.member("value", value);
    w.member("unit", spec.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

int run(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     config.seconds > 0 && config.seconds <= 600;
    } else if (flag == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return usage();
  }

  config.bin_dir =
      std::filesystem::canonical("/proc/self/exe").parent_path().string();
  config.work_dir = config.bin_dir + "/run-" + std::to_string(::getpid());
  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);
  struct RemoveWorkDir {
    std::string path;
    ~RemoveWorkDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } remove_work_dir{config.work_dir};

  Outcome out;
  if (config.workload == "flow") {
    out = run_flow(config);
  } else if (config.workload == "explore") {
    out = run_explore(config);
  } else if (config.workload == "serve_mixed") {
    out = run_serve(config, false);
  } else if (config.workload == "serve_hot") {
    out = run_serve(config, true);
  } else {
    return usage();
  }
  std::fprintf(stderr, "cipbench %s seed %llu: %llu attempted, %llu failed\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed),
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed));
  const std::string line = result_line(out, config.trace);
  std::printf("%s\n", line.c_str());
  return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace cipbench

int main(int argc, char** argv) {
  try {
    return cipbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cipbench: %s\n", e.what());
    return 1;
  }
}
