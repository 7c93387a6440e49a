#include "replay.hpp"

#include "common.hpp"
#include "community/groups.hpp"
#include "community/interests.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

constexpr double kReplayBudgetS = 0.05;

/// Results of replayed calls land here so the compiler keeps the calls.
volatile double g_sink = 0.0;

/// Runs `pass` (which reports how many calls it made) until the budget is
/// spent; returns ns per call.
template <typename Pass>
double ns_per_call(Pass pass) {
  const auto start = Clock::now();
  std::uint64_t calls = 0;
  do {
    calls += pass();
  } while (seconds_since(start) < kReplayBudgetS);
  return calls == 0 ? 0.0 : seconds_since(start) * 1e9 /
                                static_cast<double>(calls);
}

}  // namespace

ProtoCost time_proto(
    const std::vector<std::pair<ph::proto::Request, ph::proto::Response>>&
        samples,
    bool* round_trip_ok) {
  ProtoCost cost;
  if (samples.empty()) return cost;
  std::vector<ph::Bytes> requests;
  std::vector<ph::Bytes> responses;
  double bytes = 0.0;
  for (const auto& [request, response] : samples) {
    requests.push_back(ph::proto::encode(request));
    responses.push_back(ph::proto::encode(response));
    bytes += static_cast<double>(requests.back().size() +
                                 responses.back().size());
    auto req = ph::proto::decode_request(requests.back());
    auto resp = ph::proto::decode_response(responses.back());
    if (!req || !resp || *req != request || *resp != response) {
      *round_trip_ok = false;
    }
  }
  cost.bytes_per_op = bytes / static_cast<double>(samples.size());
  std::size_t sink = 0;
  cost.encode_ns = ns_per_call([&] {
    for (const auto& [request, response] : samples) {
      sink += ph::proto::encode(request).size();
      sink += ph::proto::encode(response).size();
    }
    return 2 * samples.size();
  });
  cost.decode_ns = ns_per_call([&] {
    for (std::size_t i = 0; i < samples.size(); ++i) {
      sink += ph::proto::decode_request(requests[i]).ok() ? 1 : 0;
      sink += ph::proto::decode_response(responses[i]).ok() ? 1 : 0;
    }
    return 2 * samples.size();
  });
  g_sink = static_cast<double>(sink);
  return cost;
}

double time_range_queries(const ph::net::Medium& medium,
                          const std::vector<ph::net::NodeId>& nodes,
                          const ph::net::TechProfile& profile) {
  if (nodes.empty()) return 0.0;
  std::size_t sink = 0;
  const double ns = ns_per_call([&] {
    for (ph::net::NodeId node : nodes) {
      sink += medium.nodes_in_range(node, profile).size();
    }
    return nodes.size();
  });
  g_sink = static_cast<double>(sink);
  return ns;
}

double time_signal(
    ph::net::Medium& medium,
    const std::vector<std::pair<ph::net::NodeId, ph::net::NodeId>>& pairs,
    const ph::net::TechProfile& profile) {
  if (pairs.empty()) return 0.0;
  double sink = 0.0;
  const double ns = ns_per_call([&] {
    medium.invalidate_signal_memo();
    for (const auto& [a, b] : pairs) sink += medium.signal(a, b, profile);
    return pairs.size();
  });
  g_sink = sink;
  return ns;
}

double time_group_on_peer(const std::vector<std::string>& local_interests,
                          const std::vector<PeerInput>& peers) {
  if (peers.empty()) return 0.0;
  const ph::community::SemanticDictionary dictionary;
  ph::obs::Registry registry;
  return ns_per_call([&] {
    ph::community::GroupEngine engine("replay", dictionary, &registry);
    engine.set_local_interests(local_interests);
    for (const PeerInput& peer : peers) {
      engine.on_peer(peer.member, peer.interests);
    }
    return peers.size();
  });
}

double time_kernel_dispatch() {
  ph::sim::Simulator simulator;
  std::uint64_t fired = 0;
  constexpr int kChains = 64;
  for (int i = 0; i < kChains; ++i) {
    struct Chain {
      static void arm(ph::sim::Simulator& s, std::uint64_t* n, int period) {
        s.schedule(static_cast<ph::sim::Duration>(period), [&s, n, period] {
          ++*n;
          arm(s, n, period);
        });
      }
    };
    Chain::arm(simulator, &fired, 1000 + 37 * i);
  }
  simulator.run_for(ph::sim::seconds(5));  // warm the queue's storage
  return ns_per_call([&] {
    const std::uint64_t before = fired;
    simulator.run_for(ph::sim::seconds(1));
    return fired - before;
  });
}

}  // namespace perfbench
