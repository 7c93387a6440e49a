#include "sim_window.hpp"

namespace perfbench {

using namespace ph;

SimWindow::SimWindow(sim::Simulator& simulator, const obs::Registry& registry,
                     SpanJournal& journal, const Options& options)
    : simulator_(simulator),
      registry_(registry),
      journal_(journal),
      options_(options) {}

void SimWindow::run(std::size_t prefix_blocks,
                    const std::function<void()>& run_block,
                    const std::function<double()>& ops,
                    const std::function<void()>& at_prefix) {
  if (options_.trace) {
    journal_.enable(1 << 18);
    before_ = registry_.snapshot();
  }
  journal_.set_enabled(false);
  const std::uint64_t events0 = simulator_.events_executed();
  const std::uint64_t allocs0 = allocations();
  const auto start = Clock::now();
  while (blocks_.size() < prefix_blocks ||
         seconds_since(start) < options_.seconds) {
    next_cpu();
    Block block;
    block.traced = options_.trace && traced_block(blocks_.size());
    journal_.set_enabled(block.traced);
    simulator_.set_profiler(block.traced ? &profiler_ : nullptr);
    const double ops0 = ops();
    const sim::Time virt0 = simulator_.now();
    const auto wall0 = Clock::now();
    run_block();
    block.wall_s = seconds_since(wall0);
    block.virt_s = sim::to_seconds(simulator_.now() - virt0);
    block.ops = ops() - ops0;
    blocks_.push_back(block);
    if (blocks_.size() == prefix_blocks) {
      rss_mb_ = peak_rss_mb();
      at_prefix();
    }
  }
  simulator_.set_profiler(nullptr);
  journal_.set_enabled(false);
  events_ = simulator_.events_executed() - events0;
  allocs_ = allocations() - allocs0;
  if (options_.trace) after_ = registry_.snapshot();
}

double SimWindow::sim_rate() const {
  std::vector<double> rates;
  for (const Block& block : blocks_) {
    rates.push_back(block.virt_s / block.wall_s);
  }
  return upper_quartile(std::move(rates));
}

double SimWindow::ops_rate() const {
  std::vector<double> rates;
  for (const Block& block : blocks_) rates.push_back(block.ops / block.wall_s);
  return upper_quartile(std::move(rates));
}

void SimWindow::add_layer_metrics(RunResult& result) const {
  auto delta = [&](const std::string& name) {
    return static_cast<double>(after_.counter(name) - before_.counter(name));
  };
  auto delta_sum = [&](const std::string& prefix, const std::string& leaf) {
    return static_cast<double>(sum_counters(after_, prefix, leaf) -
                               sum_counters(before_, prefix, leaf));
  };
  auto& v = result.values;
  for (std::size_t c = 0; c < obs::prof::kCenterCount; ++c) {
    const auto center = static_cast<obs::prof::Center>(c);
    v[std::string("prof.") + obs::prof::center_name(center) + ".events"] =
        static_cast<double>(profiler_.cost(center).events);
  }
  const double traced_events = static_cast<double>(profiler_.events_total());
  const double events = static_cast<double>(events_);
  v["sim.events"] = events;
  v["sim.ns_per_event"] =
      traced_events > 0 ? journal_.total_ns("sim.run_until") / traced_events
                        : 0.0;
  v["sim.allocs_per_event"] =
      events > 0 ? static_cast<double>(allocs_) / events : 0.0;
  v["net.signal_evals"] = delta("net.medium.signal_evals");
  v["net.range_queries"] = delta("net.medium.spatial.queries");
  v["net.frames"] =
      delta("net.medium.datagrams_sent") +
      delta("net.medium.link_messages_sent");
  v["net.bytes"] = delta("net.tech.bluetooth.datagram_bytes") +
                   delta("net.tech.bluetooth.link_bytes");
  v["net.links_opened"] = delta("net.medium.links_opened");
  v["peerhood.inquiries"] = delta_sum("peerhood.daemon.", "inquiries_started");
  v["peerhood.pings"] = delta_sum("peerhood.daemon.", "pings_sent");
  v["peerhood.service_queries"] =
      delta_sum("peerhood.daemon.", "service_queries");
  v["peerhood.sessions_opened"] = delta("transport.channels_opened");
  v["community.rpcs"] = delta_sum("community.client.", "rpcs_sent");
  v["community.rpc_failed"] = delta_sum("community.client.", "rpcs_failed");
  v["community.fanouts"] = delta_sum("community.client.", "fanouts");
  v["community.cache_hits"] = delta_sum("community.client.", "cache_hits");
  v["community.probes"] = delta_sum("community.app.", "peers_probed");
  v["community.probe_failures"] = delta_sum("community.app.", "probe_failures");
  v["community.group_comparisons"] =
      delta_sum("community.groups.", "comparisons");
  v["transport.datagrams"] = delta("transport.datagrams_sent");
  v["transport.channels"] =
      delta("transport.channels_opened") + delta("transport.channels_accepted");
  v["transport.bytes"] =
      delta("transport.datagram_bytes") + delta("transport.channel_bytes");
  v["obs.metrics"] = static_cast<double>(registry_.counters().size() +
                                         registry_.gauges().size() +
                                         registry_.histograms().size());
  std::vector<double> traced, untraced;
  for (const Block& block : blocks_) {
    (block.traced ? traced : untraced).push_back(block.virt_s / block.wall_s);
  }
  v["trace.overhead_pct"] = overhead_pct(traced, untraced);
}

void SimWindow::add_replays_and_ledger(
    net::Medium& medium, const std::vector<net::NodeId>& nodes,
    const std::vector<std::pair<net::NodeId, net::NodeId>>& pairs,
    const std::vector<std::string>& local_interests,
    const std::vector<PeerInput>& peers,
    const std::vector<std::pair<proto::Request, proto::Response>>& wire,
    RunResult& result) const {
  const net::TechProfile bt = net::bluetooth_2_0();
  auto& v = result.values;
  v["net.range_query_ns"] = time_range_queries(medium, nodes, bt);
  v["net.signal_ns"] = time_signal(medium, pairs, bt);
  v["community.group_update_ns"] = time_group_on_peer(local_interests, peers);
  bool round_trip = true;
  const ProtoCost proto_cost = time_proto(wire, &round_trip);
  result.check(round_trip, "proto: a decoded message differs from its input");
  v["proto.encode_ns"] = proto_cost.encode_ns;
  v["proto.decode_ns"] = proto_cost.decode_ns;
  v["proto.bytes_per_op"] = proto_cost.bytes_per_op;
  v["sim.dispatch_ns"] = time_kernel_dispatch();

  // Counts are window totals; the ledger covers the traced blocks, so
  // scale them by the traced blocks' share of the window's wall time.
  double traced_wall = 0.0, window_wall = 0.0;
  for (const Block& block : blocks_) {
    window_wall += block.wall_s;
    traced_wall += block.traced ? block.wall_s : 0.0;
  }
  const double share = window_wall > 0 ? traced_wall / window_wall : 0.0;
  result.ledger_wall_s = traced_wall;
  result.ledger = {
      {"sim: event dispatch", static_cast<double>(profiler_.events_total()),
       v["sim.dispatch_ns"]},
      {"net: range queries", v["net.range_queries"] * share,
       v["net.range_query_ns"]},
      {"net: signal evaluations", v["net.signal_evals"] * share,
       v["net.signal_ns"]},
      {"proto: encode+decode", v["community.rpcs"] * share * 2,
       proto_cost.encode_ns + proto_cost.decode_ns},
      {"community: group on_peer",
       (v["community.probes"] - v["community.probe_failures"]) * share,
       v["community.group_update_ns"]},
  };
}

}  // namespace perfbench
