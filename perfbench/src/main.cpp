// ph_perfbench — the PeerHood benchmark binary (see perfbench/README.md).
//
//   ph_perfbench --workload crowd|rooms|loopback --seed N --seconds S
//                --trace 0|1 [--smoke] [--socket-dir D] [--trace-out F]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when a
// correctness check failed or nothing was attempted, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Emitted by every workload with --trace 0 (BENCHMARK.json `end_to_end`).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},     {"peak_rss_mb", "MB"}, {"ops_per_s", "1/s"},
    {"op_mean_ms", "ms"}, {"op_p99_ms", "ms"},
};

// Emitted by every workload with --trace 1 (BENCHMARK.json `per_layer`);
// a layer a workload does not exercise reads 0.
const std::vector<MetricSpec> kPerLayer = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.dispatch_ns", "ns"},
    {"sim.allocs_per_event", "count"},
    {"net.signal_evals", "count"},
    {"net.frames", "count"},
    {"net.range_queries", "count"},
    {"net.range_query_ns", "ns"},
    {"net.signal_ns", "ns"},
    {"net.bytes", "B"},
    {"net.links_opened", "count"},
    {"peerhood.inquiries", "count"},
    {"peerhood.pings", "count"},
    {"peerhood.service_queries", "count"},
    {"peerhood.discovery_p50_virtual_ms", "ms"},
    {"peerhood.sessions_opened", "count"},
    {"peerhood.session_overhead_us", "us"},
    {"community.rpcs", "count"},
    {"community.rpc_failed", "count"},
    {"community.fanouts", "count"},
    {"community.cache_hits", "count"},
    {"community.rpc_p50_virtual_ms", "ms"},
    {"community.read_p50_virtual_ms", "ms"},
    {"community.write_p50_virtual_ms", "ms"},
    {"community.probes", "count"},
    {"community.probe_failures", "count"},
    {"community.group_comparisons", "count"},
    {"community.group_update_ns", "ns"},
    {"proto.encode_ns", "ns"},
    {"proto.decode_ns", "ns"},
    {"proto.bytes_per_op", "B"},
    {"transport.datagrams", "count"},
    {"transport.channels", "count"},
    {"transport.bytes", "B"},
    {"transport.partial_writes", "count"},
    {"transport.backpressure", "count"},
    {"transport.loop_lag_p95_us", "us"},
    {"transport.chan_rtt_p50_us", "us"},
    {"transport.allocs_per_msg", "count"},
    {"transport.goodput_mb_s", "MB/s"},
    {"obs.sample_ms", "ms"},
    {"obs.sample_share", "ratio"},
    {"obs.sampler_allocs", "count"},
    {"obs.metrics", "count"},
    {"prof.unattributed.events", "count"},
    {"prof.sim.kernel.events", "count"},
    {"prof.obs.sample.events", "count"},
    {"prof.net.delivery.events", "count"},
    {"prof.net.inquiry.events", "count"},
    {"prof.net.link.events", "count"},
    {"prof.peerhood.discovery.events", "count"},
    {"prof.peerhood.query.events", "count"},
    {"prof.peerhood.ping.events", "count"},
    {"prof.peerhood.session.events", "count"},
    {"prof.community.rpc.events", "count"},
    {"trace.overhead_pct", "%"},
    {"ledger.gap_pct", "%"},
};

void usage() {
  std::fprintf(stderr,
               "usage: ph_perfbench --workload crowd|rooms|loopback --seed N "
               "--seconds S --trace 0|1 [--smoke] [--socket-dir D] "
               "[--trace-out F]\n");
}

bool parse(int argc, char** argv, perfbench::Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--socket-dir" && has_value) {
      options.socket_dir = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !options.workload.empty() && options.seconds > 0;
}

/// Prints the cost ledger and returns its gap as a share of the measured
/// wall time, in percent.
double print_ledger(const perfbench::RunResult& result) {
  std::printf("cost ledger (traced window, wall %.3f s):\n",
              result.ledger_wall_s);
  std::printf("  %-28s %14s %12s %10s\n", "layer", "count", "unit ns",
              "total s");
  double explained = 0.0;
  for (const perfbench::LedgerRow& row : result.ledger) {
    const double total = row.count * row.unit_ns / 1e9;
    explained += total;
    std::printf("  %-28s %14.0f %12.1f %10.3f\n", row.layer.c_str(), row.count,
                row.unit_ns, total);
  }
  const double gap = result.ledger_wall_s - explained;
  const double gap_pct =
      result.ledger_wall_s > 0 ? gap / result.ledger_wall_s * 100.0 : 0.0;
  std::printf("  %-28s %14s %12s %10.3f\n", "explained", "", "", explained);
  std::printf("  %-28s %14s %12s %10.3f (%.1f%% of wall)\n", "gap", "", "",
              gap, gap_pct);
  return gap_pct;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  perfbench::RunResult result;
  if (options.workload == "crowd") {
    result = perfbench::run_crowd(options);
  } else if (options.workload == "rooms") {
    result = perfbench::run_rooms(options);
  } else if (options.workload == "loopback") {
    result = perfbench::run_loopback(options);
  } else {
    usage();
    return 2;
  }

  std::printf("machine: %s\n", perfbench::machine_descriptor().c_str());
  std::printf("workload: %s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? " smoke" : "");
  for (const Metric& metric : result.report) {
    std::printf("headline %-36s %16.6f %s\n", metric.name.c_str(),
                metric.value, metric.unit.c_str());
  }
  if (!result.ledger.empty()) {
    result.values["ledger.gap_pct"] = print_ledger(result);
  }
  for (const std::string& failure : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  if (result.check_failed > result.check_failures.size()) {
    std::printf("CHECK FAILED: ... %llu failed checks in total\n",
                static_cast<unsigned long long>(result.check_failed));
  }

  const bool correct = result.check_failed == 0 && result.attempted > 0;
  const auto& specs = options.trace ? kPerLayer : kEndToEnd;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto it = result.values.find(specs[i].name);
    const double value = it == result.values.end() ? 0.0 : it->second;
    std::printf("metric %-36s %16.6f %s\n", specs[i].name, value,
                specs[i].unit);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
