// Single-layer timings for the traced run: after the measured window, the
// inputs a workload recorded are replayed against one public function of
// one layer at a time, so each layer gets a unit cost of its own.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "net/medium.hpp"
#include "proto/messages.hpp"

namespace perfbench {

struct ProtoCost {
  double encode_ns = 0.0;     ///< per message (requests and responses)
  double decode_ns = 0.0;     ///< per message
  double bytes_per_op = 0.0;  ///< encoded request + response
};

/// Encodes and decodes every (request, response) pair until about 50 ms
/// of wall time has passed; checks each round trip decodes to its input.
ProtoCost time_proto(
    const std::vector<std::pair<ph::proto::Request, ph::proto::Response>>&
        samples,
    bool* round_trip_ok);

/// ns per Medium::nodes_in_range over `nodes` at the world's current
/// virtual time.
double time_range_queries(const ph::net::Medium& medium,
                          const std::vector<ph::net::NodeId>& nodes,
                          const ph::net::TechProfile& profile);

/// ns per Medium::signal over `pairs`; the per-timestamp signal memo is
/// cleared before every pass, so each call evaluates the radio model.
double time_signal(
    ph::net::Medium& medium,
    const std::vector<std::pair<ph::net::NodeId, ph::net::NodeId>>& pairs,
    const ph::net::TechProfile& profile);

/// One neighbour's (member, interests) as the group engine sees it.
struct PeerInput {
  std::string member;
  std::vector<std::string> interests;
};

/// ns per GroupEngine::on_peer on a fresh engine holding
/// `local_interests`, replaying `peers`.
double time_group_on_peer(const std::vector<std::string>& local_interests,
                          const std::vector<PeerInput>& peers);

/// ns per event of a bare sim::Simulator dispatching empty events: the
/// kernel's own share of every event.
double time_kernel_dispatch();

}  // namespace perfbench
