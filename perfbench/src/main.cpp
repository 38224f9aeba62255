// perfbench: one workload per run, end-to-end metrics (untraced) or
// per-layer metrics (traced), and the run's verdict, as one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Layers;
using perfbench::Report;
using perfbench::RunArgs;

struct Workload {
  const char* name;
  void (*run)(const RunArgs&, Report&, Layers&);
};
const Workload kWorkloads[] = {
    {"cbr-tcp", perfbench::run_cbr_tcp},
    {"sv-host", perfbench::run_sv_host},
    {"fr-small-tcp", perfbench::run_fr_small_tcp},
    {"paper-sweep", perfbench::run_paper_sweep},
};

struct LayerMetric {
  std::string name;
  const char* unit;
};

/// Every per-layer metric, in the order BENCHMARK.json lists them. A
/// traced run prints all of them; one whose layer the workload's path
/// never calls reads 0 (README, "Per-layer metrics").
std::vector<LayerMetric> layer_metrics() {
  std::vector<LayerMetric> m = {
      {"http.parse_ns", "ns"},
      {"xml.parse_ns", "ns"},
      {"xml.parse_mb_per_s", "MB/s"},
      {"xml.nodes_per_msg", "count"},
      {"xml.fingerprint_ns", "ns"},
      {"xpath.eval_ns", "ns"},
      {"xsd.validate_valid_ns", "ns"},
      {"xsd.validate_invalid_ns", "ns"},
      {"aon.process_wire_ns", "ns"},
      {"aon.allocs_per_msg", "count"},
      {"aon.allocs_per_msg.valid", "count"},
      {"aon.allocs_per_msg.invalid", "count"},
      {"aon.route_cache_hits", "count"},
      {"aon.route_cache_lookups", "count"},
      {"aon.route_cache_hit_rate", "ratio"},
      {"aon.worker_busy_share.w0", "ratio"},
      {"aon.worker_busy_share.w1", "ratio"},
      {"util.scan_calls_per_msg", "count"},
      {"util.scan_bytes_per_msg", "B"},
      {"util.arena_bytes_per_msg", "B"},
      {"net.client_rtt_us", "us"},
      {"net.transport_overhead_us", "us"},
      {"net.downstream_send_ns", "ns"},
      {"net.read_eagain_per_msg", "count"},
      {"net.short_writes", "count"},
      {"net.bytes_in_per_msg", "B"},
      {"net.bytes_out_per_msg", "B"},
      {"load.gen_lag_us", "us"},
      {"load.traced_msgs_per_s", "msgs/s"},
  };
  for (const char* uc : {"FR", "CBR", "SV"}) {
    m.push_back({std::string("wload.capture_s.") + uc, "s"});
  }
  for (const char* uc : {"FR", "CBR", "SV"}) {
    m.push_back({std::string("wload.trace_ops.") + uc, "count"});
  }
  for (const char* uc : {"FR", "CBR", "SV"}) {
    for (const char* p : {"1CPm", "2CPm", "1LPx", "2LPx", "2PPx"}) {
      m.push_back({std::string("uarch.replay_s.") + uc + "." + p, "s"});
    }
  }
  m.push_back({"uarch.sim_ops_per_s", "ops/s"});
  m.push_back({"netsim.tcp_stream_s", "s"});
  return m;
}

int usage() {
  std::fputs(
      "usage: perfbench --workload <cbr-tcp|sv-host|fr-small-tcp|paper-sweep>"
      " --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  args.start_ns = perfbench::now_ns();
  args.out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      args.workload = v;
    } else if (key == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (key == "--out") {
      args.out_dir = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0) return usage();
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (args.workload == c.name) w = &c;
  }
  if (w == nullptr) return usage();

  Report report;
  Layers layers;
  const double steal0 = perfbench::host_steal_seconds();
  w->run(args, report, layers);
  // CPU time the host took from this VM during the run: the figures of
  // a run with much steal are not comparable with a calm one.
  std::fprintf(stderr, "perfbench: host steal %.2f CPU-s over the run\n",
               perfbench::host_steal_seconds() - steal0);
  if (args.trace) {
    for (const LayerMetric& m : layer_metrics()) {
      const auto it = layers.find(m.name);
      report.add(m.name, it == layers.end() ? 0.0 : it->second, m.unit);
    }
  }
  std::fflush(stderr);
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}
