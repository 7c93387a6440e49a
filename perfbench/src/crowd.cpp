// Workload `crowd`: dynamic group discovery in a large moving crowd.
//
// 1280 Bluetooth devices walk random waypoints at 0.5–2 m/s over a field
// sized for 40 devices per 60×60 m (bench_overlay_scale --field=auto).
// Every device runs the full stack — daemon, community app, group engine —
// with two of five topics and its member logged in. An obs::Sampler
// scrapes the world registry every virtual second. The first virtual
// minute is warm-up and belongs to set-up.
//
// The measured window runs in blocks of 30 virtual seconds (one community
// peer-refresh period, so blocks carry comparable work) until both the
// wall budget and the deterministic prefix of 4 blocks are covered.
// The unit of work is one simulated second; latency is the delay from
// a daemon announcing an interest-sharing neighbour to that member joining
// the matching group.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "community/app.hpp"
#include "net/medium.hpp"
#include "obs/prof.hpp"
#include "obs/sampler.hpp"
#include "sim/simulator.hpp"
#include "sim_window.hpp"
#include "util/check.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ph;

const std::vector<std::string> kTopics = {"music", "sports", "films",
                                          "coffee", "code"};

std::vector<std::string> interests_of(std::size_t i) {
  return {kTopics[i % kTopics.size()], kTopics[(i + 2) % kTopics.size()]};
}

bool share_interest(std::size_t a, std::size_t b) {
  for (const std::string& x : interests_of(a)) {
    for (const std::string& y : interests_of(b)) {
      if (x == y) return true;
    }
  }
  return false;
}

struct CrowdSize {
  std::size_t devices = 1280;
  sim::Duration warmup = sim::seconds(60);
  sim::Duration block = sim::seconds(30);
  std::size_t deterministic_blocks = 4;
};

/// One crowd world, built and warmed up.
class Crowd {
 public:
  Crowd(const CrowdSize& size, std::uint64_t seed, SpanJournal& journal)
      : size_(size),
        journal_(journal),
        medium_(simulator_, sim::Rng(seed)),
        sampler_(medium_.registry(), obs::SamplerConfig{1'000'000, 64}) {
    sim::Rng mobility(seed * 17 + 3);
    const double field =
        60.0 * std::sqrt(static_cast<double>(size.devices) / 40.0);
    for (std::size_t i = 0; i < size.devices; ++i) {
      auto device = std::make_unique<Device>();
      peerhood::StackConfig config;
      config.device_name = "n" + std::to_string(i);
      config.radios = {net::bluetooth_2_0()};
      sim::RandomWaypoint::Config walk;
      walk.area_min = {0, 0};
      walk.area_max = {field, field};
      walk.speed_min_mps = 0.5;
      walk.speed_max_mps = 2.0;
      device->stack = std::make_unique<peerhood::Stack>(
          medium_,
          std::make_unique<sim::RandomWaypoint>(walk, mobility.fork()),
          config);
      device->app = std::make_unique<community::CommunityApp>(*device->stack);
      const std::string member = "m" + std::to_string(i);
      auto account = device->app->create_account(member, "pw");
      PH_CHECK(account.ok());
      for (const std::string& topic : interests_of(i)) {
        (*account)->add_interest(topic);
      }
      PH_CHECK(device->app->login(member, "pw").ok());
      index_of_[device->stack->id()] = i;
      devices_.push_back(std::move(device));
    }
    for (std::size_t i = 0; i < devices_.size(); ++i) watch_joins(i);
    // The ops plane's scrape, tagged like the repository's own samplers.
    const obs::prof::TagScope tag(obs::prof::Center::obs_sample);
    simulator_.schedule_periodic(sim::seconds(1), [this] {
      const std::int64_t span =
          journal_.open("obs", "obs.sample", simulator_.now(), slice_span_);
      const std::uint64_t allocs = allocations();
      sampler_.sample(simulator_.now());
      sampler_allocs_ += allocations() - allocs;
      journal_.close(span, simulator_.now());
    });
    simulator_.run_until(size.warmup);
  }

  sim::Simulator& simulator() { return simulator_; }
  net::Medium& medium() { return medium_; }
  obs::Sampler& sampler() { return sampler_; }
  std::uint64_t sampler_allocs() const { return sampler_allocs_; }

  /// Runs one block of virtual time in 1 s slices, each a `sim.run_until`
  /// span when the journal records.
  void run_block() {
    const sim::Time end = simulator_.now() + size_.block;
    while (simulator_.now() < end) {
      slice_span_ = journal_.open("sim", "sim.run_until", simulator_.now());
      simulator_.run_until(
          std::min<sim::Time>(end, simulator_.now() + sim::seconds(1)));
      journal_.close(slice_span_, simulator_.now());
      slice_span_ = -1;
    }
  }

  std::uint64_t counter_sum(const std::string& prefix,
                            const std::string& leaf) const {
    return sum_counters(medium_.registry(), prefix, leaf);
  }

  /// Group events so far (formations, dissolutions, joins, leaves).
  std::uint64_t group_events() const {
    std::uint64_t total = 0;
    for (const char* leaf :
         {"groups_formed", "groups_dissolved", "member_joins",
          "member_leaves"}) {
      total += counter_sum("community.groups.", leaf);
    }
    return total;
  }

  /// Starts collecting discovery-to-join delays (virtual seconds).
  void record_joins(bool on) { recording_ = on; }
  const std::vector<double>& join_delays_s() const { return join_delays_s_; }

  /// Inputs for the single-layer replays, taken from the final state.
  std::vector<net::NodeId> node_ids() const {
    std::vector<net::NodeId> ids;
    for (const auto& device : devices_) ids.push_back(device->stack->id());
    return ids;
  }
  std::vector<std::pair<net::NodeId, net::NodeId>> neighbour_pairs() const {
    std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
    for (const auto& device : devices_) {
      for (const auto& info : device->stack->daemon().devices()) {
        pairs.emplace_back(device->stack->id(), info.id);
      }
    }
    return pairs;
  }
  std::vector<PeerInput> peers_of(std::size_t i) const {
    std::vector<PeerInput> peers;
    for (const auto& info : devices_[i]->stack->daemon().devices()) {
      const std::size_t j = index_of_.at(info.id);
      peers.push_back({"m" + std::to_string(j), interests_of(j)});
    }
    return peers;
  }
  std::size_t size() const { return devices_.size(); }

 private:
  struct Device {
    std::unique_ptr<peerhood::Stack> stack;
    std::unique_ptr<community::CommunityApp> app;
    /// Interest-sharing neighbours announced and not yet joined:
    /// device index -> virtual time of the announcement.
    std::map<std::size_t, sim::Time> pending;
  };

  /// Daemon monitor + group callbacks on device i: the delay from a daemon
  /// announcing an interest-sharing neighbour to that member joining one
  /// of i's groups.
  void watch_joins(std::size_t i) {
    Device& device = *devices_[i];
    device.stack->daemon().monitor_all(
        [this, i](const peerhood::NeighbourEvent& event) {
          auto it = index_of_.find(event.device.id);
          if (it == index_of_.end()) return;
          auto& pending = devices_[i]->pending;
          if (event.kind == peerhood::NeighbourEvent::Kind::disappeared) {
            pending.erase(it->second);
          } else if (event.kind == peerhood::NeighbourEvent::Kind::appeared &&
                     share_interest(i, it->second)) {
            pending.emplace(it->second, simulator_.now());
          }
        });
    community::GroupCallbacks callbacks;
    callbacks.on_member_joined = [this, i](const std::string&,
                                           const std::string& member) {
      const std::size_t j = std::stoul(member.substr(1));
      auto& pending = devices_[i]->pending;
      auto it = pending.find(j);
      if (it == pending.end()) return;
      if (recording_) {
        join_delays_s_.push_back(
            sim::to_seconds(simulator_.now() - it->second));
      }
      pending.erase(it);
    };
    device.app->groups().set_callbacks(std::move(callbacks));
  }

  CrowdSize size_;
  SpanJournal& journal_;
  sim::Simulator simulator_;
  net::Medium medium_;
  obs::Sampler sampler_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::map<net::NodeId, std::size_t> index_of_;
  std::int64_t slice_span_ = -1;
  std::uint64_t sampler_allocs_ = 0;
  bool recording_ = false;
  std::vector<double> join_delays_s_;
};

struct Fingerprint {
  std::uint64_t events = 0;
  std::uint64_t group_events = 0;
  bool operator==(const Fingerprint&) const = default;
};

/// Runs the measured window on a built, warmed-up crowd and fills
/// `result` with its metrics (per-layer ones too when traced). The unit of
/// work is one simulated second of the whole crowd (a 1 s slice with one
/// ops-plane scrape); it cannot fail. Peer probes do fail when a peer
/// walks out of range mid-RPC — that is the radio model at work, so they
/// are reported as headline and per-layer counts.
void measure(Crowd& crowd, const CrowdSize& size, SpanJournal& journal,
             const Options& options, RunResult& result) {
  sim::Simulator& simulator = crowd.simulator();
  const obs::Registry& registry = crowd.medium().registry();
  std::vector<double> rpc_bounds, disc_bounds;
  const std::vector<std::uint64_t> rpc_before =
      sum_buckets(registry, "community.client.", "rpc_us", &rpc_bounds);
  const std::vector<std::uint64_t> disc_before =
      sum_buckets(registry, "peerhood.daemon.", "discovery_us", &disc_bounds);
  std::vector<std::uint64_t> rpc_prefix, disc_prefix;
  const std::uint64_t formed_before =
      crowd.counter_sum("community.groups.", "groups_formed");
  const std::uint64_t probes_before =
      crowd.counter_sum("community.app.", "peers_probed");
  const std::uint64_t failures_before =
      crowd.counter_sum("community.app.", "probe_failures");
  const std::uint64_t events_before = simulator.events_executed();
  const std::uint64_t sampler_allocs_before = crowd.sampler_allocs();
  Fingerprint prefix_print;

  SimWindow window(simulator, registry, journal, options);
  crowd.record_joins(true);
  window.run(
      size.deterministic_blocks, [&] { crowd.run_block(); },
      [&] { return sim::to_seconds(simulator.now()); },
      [&] {
        crowd.record_joins(false);
        rpc_prefix =
            sum_buckets(registry, "community.client.", "rpc_us", nullptr);
        disc_prefix =
            sum_buckets(registry, "peerhood.daemon.", "discovery_us", nullptr);
        prefix_print = {simulator.events_executed() - events_before,
                        crowd.group_events()};
      });

  // --- end-to-end ---------------------------------------------------------
  double simulated_s = 0.0;
  for (const Block& block : window.blocks()) simulated_s += block.virt_s;
  result.attempted = static_cast<std::uint64_t>(std::llround(simulated_s));
  const std::vector<double>& joins = crowd.join_delays_s();
  const std::uint64_t formed =
      crowd.counter_sum("community.groups.", "groups_formed") - formed_before;
  const std::uint64_t probes =
      crowd.counter_sum("community.app.", "peers_probed") - probes_before;
  const std::uint64_t probe_failures =
      crowd.counter_sum("community.app.", "probe_failures") - failures_before;
  result.check(formed > 0, "crowd: no group formed in the measured window");
  result.check(!joins.empty(), "crowd: no discovery-to-join delay observed");

  const double rpc_p50_ms =
      hist_delta_quantile(rpc_bounds, rpc_before, rpc_prefix, 0.50) / 1e3;
  result.values["peak_rss_mb"] = window.rss_mb();
  result.values["ops_per_s"] = window.sim_rate();
  result.values["op_mean_ms"] = mean(joins) * 1e3;
  result.values["op_p99_ms"] = quantile(joins, 0.99) * 1e3;
  result.headline("sim_s_per_wall_s", window.sim_rate(), "s/s");
  result.headline("group_join_p50_virtual_s", quantile(joins, 0.5), "s");
  result.headline("group_join_mean_virtual_s", mean(joins), "s");
  result.headline("group_join_p99_virtual_s", quantile(joins, 0.99), "s");
  result.headline("group_joins", static_cast<double>(joins.size()), "count");
  result.headline("groups_formed", static_cast<double>(formed), "count");
  result.headline("probes_attempted", static_cast<double>(probes), "count");
  result.headline("probes_failed", static_cast<double>(probe_failures),
                  "count");
  result.headline("probe_rpc_p50_virtual_ms", rpc_p50_ms, "ms");
  result.headline("deterministic_events",
                  static_cast<double>(prefix_print.events), "count");
  result.headline("deterministic_group_events",
                  static_cast<double>(prefix_print.group_events), "count");
  if (!options.trace) return;

  // --- per-layer (traced run) ---------------------------------------------
  window.add_layer_metrics(result);
  auto& v = result.values;
  v["community.rpc_p50_virtual_ms"] = rpc_p50_ms;
  v["peerhood.discovery_p50_virtual_ms"] =
      hist_delta_quantile(disc_bounds, disc_before, disc_prefix, 0.5) / 1e3;
  const double slice_ns = journal.total_ns("sim.run_until");
  const double sample_ns = journal.total_ns("obs.sample");
  const double samples = static_cast<double>(journal.count("obs.sample"));
  v["obs.sample_ms"] = samples > 0 ? sample_ns / samples / 1e6 : 0.0;
  v["obs.sample_share"] = slice_ns > 0 ? sample_ns / slice_ns : 0.0;
  v["obs.sampler_allocs"] =
      static_cast<double>(crowd.sampler_allocs() - sampler_allocs_before);

  std::vector<PeerInput> peers;
  for (std::size_t i = 0; i < crowd.size() && peers.size() < 2000; ++i) {
    for (PeerInput& peer : crowd.peers_of(i)) peers.push_back(std::move(peer));
  }
  proto::Response members;
  members.op = proto::Opcode::ps_get_online_member_list;
  members.names = {"m1"};
  proto::Response topics;
  topics.op = proto::Opcode::ps_get_interest_list;
  topics.names = interests_of(1);
  window.add_replays_and_ledger(
      crowd.medium(), crowd.node_ids(), crowd.neighbour_pairs(),
      interests_of(0), peers,
      {{proto::Request{proto::Opcode::ps_get_online_member_list, "m0", "", "",
                       {}},
        members},
       {proto::Request{proto::Opcode::ps_get_interest_list, "m0", "", "", {}},
        topics}},
      result);
  result.ledger.push_back({"obs: Sampler::sample", samples,
                           samples > 0 ? sample_ns / samples : 0.0});
}

}  // namespace

RunResult run_crowd(const Options& options) {
  RunResult result;
  CrowdSize size;
  if (options.smoke) {
    size.devices = 48;
    size.warmup = sim::seconds(20);
    size.deterministic_blocks = 2;
  }

  // Every set-up (see setup_count) is timed and fingerprinted: events and
  // group events after warm-up must repeat exactly for one seed.
  SpanJournal journal;
  std::vector<double> setup_s;
  std::vector<Fingerprint> prints;
  auto build = [&] {
    next_cpu();
    const auto start = Clock::now();
    auto crowd = std::make_unique<Crowd>(size, options.seed, journal);
    setup_s.push_back(seconds_since(start));
    prints.push_back({crowd->simulator().events_executed(),
                      crowd->group_events()});
    return crowd;
  };
  const int setups = setup_count(options, 5);
  const int before = (setups + 1) / 2;
  std::unique_ptr<Crowd> crowd;
  for (int i = 0; i < before; ++i) {
    crowd.reset();
    crowd = build();
  }
  std::printf("crowd: %zu devices, warm-up %.0f virtual s; fingerprint "
              "events=%llu group_events=%llu\n",
              crowd->size(), sim::to_seconds(size.warmup),
              static_cast<unsigned long long>(prints.front().events),
              static_cast<unsigned long long>(prints.front().group_events));
  measure(*crowd, size, journal, options, result);
  result.write_spans(journal, options);
  crowd.reset();
  for (int i = before; i < setups; ++i) build();

  result.values["setup_s"] = median(setup_s);
  for (const Fingerprint& print : prints) {
    result.check(print == prints.front(),
                 "crowd: event/group-event counts differ across set-ups of "
                 "one seed");
  }
  return result;
}

}  // namespace perfbench
