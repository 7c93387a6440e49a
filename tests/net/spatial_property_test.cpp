// Property: the Medium's proximity fast path (spatial grid + position
// cache + signal memo) is observationally identical to a brute-force
// reference computed inside this test.
//
// The reference never goes through the Medium's caches: it scans each
// technology's adapters in node-id order, samples mobility directly
// through pointers the test keeps, and recomputes signal from the same
// physics as Medium::signal_physics (quadratic falloff, best-AP min/max for
// infrastructure, fault-plane signal_factor clamped to [0,1]). The world
// is stepped through a scenario exercising all the machinery's hazard
// cases: random waypoint mobility (stale grids), WLAN infrastructure with
// access points (non-direct signal path), GPRS gateway adapters
// (range-free path), powered-off radios (query-time power filtering), a
// fault-plane signal ramp (attenuation must never un-prune), and mid-run
// power / AP / mobility flips (memo invalidation). At every step every
// node's nodes_in_range and every pair's exact signal value must match
// EXPECT_EQ — bit-identical, not approximately equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/plane.hpp"
#include "net/medium.hpp"
#include "sim/mobility.hpp"
#include "sim/simulator.hpp"

namespace ph::net {
namespace {

constexpr int kCrowd = 40;
constexpr double kField = 80.0;

/// Quadratic falloff: 1 at 0 m, 0 at/beyond `range`.
double falloff(double distance_m, double range_m) {
  if (distance_m >= range_m) return 0.0;
  const double frac = distance_m / range_m;
  return 1.0 - frac * frac;
}

struct World {
  struct AccessPoint {
    NodeId node = kInvalidNode;
    sim::Vec2 position;
    double range_m = 0.0;
    bool active = true;
  };

  sim::Simulator simulator;
  Medium medium{simulator, sim::Rng(42)};
  fault::FaultPlane plane{medium, sim::Rng(5)};
  std::vector<NodeId> nodes;
  NodeId ap0 = kInvalidNode;
  NodeId ap1 = kInvalidNode;

  // Reference state, kept by the test alongside what it hands the Medium.
  std::map<NodeId, sim::MobilityModel*> mobility;
  std::array<std::map<NodeId, const Adapter*>, 3> adapters;  // by Technology
  std::vector<AccessPoint> access_points;

  World() {
    sim::Rng walkers(77);
    for (int i = 0; i < kCrowd; ++i) {
      sim::RandomWaypoint::Config walk;
      walk.area_min = {0, 0};
      walk.area_max = {kField, kField};
      auto model = std::make_unique<sim::RandomWaypoint>(walk, walkers.fork());
      sim::MobilityModel* raw = model.get();
      const NodeId id = medium.add_node("n" + std::to_string(i), std::move(model));
      mobility[id] = raw;
      nodes.push_back(id);
      Adapter& bt = add_adapter(id, bluetooth_2_0());
      if (i % 7 == 3) bt.set_powered(false);
      if (i % 3 == 0) add_adapter(id, wlan_80211b_infrastructure());
      if (i % 5 == 0) add_adapter(id, gprs());
    }
    ap0 = add_access_point("ap0", {20, 20}, 30.0);
    ap1 = add_access_point("ap1", {60, 60}, 30.0);
    fault::SignalRamp ramp;
    ramp.node = nodes[3];
    ramp.start = sim::seconds(2);
    ramp.ramp = sim::seconds(3);
    ramp.hold = sim::seconds(4);
    ramp.recover = sim::seconds(3);
    ramp.floor = 0.1;
    plane.begin_signal_ramp(ramp);
  }

  Adapter& add_adapter(NodeId node, TechProfile profile) {
    const auto tech = static_cast<std::size_t>(profile.tech);
    Adapter& adapter = medium.add_adapter(node, std::move(profile));
    adapters[tech][node] = &adapter;
    return adapter;
  }

  NodeId add_access_point(std::string name, sim::Vec2 position, double range_m) {
    const NodeId id = medium.add_access_point(std::move(name), position, range_m);
    access_points.push_back(AccessPoint{id, position, range_m, true});
    return id;
  }

  void set_access_point_active(NodeId ap, bool active) {
    medium.set_access_point_active(ap, active);
    for (AccessPoint& entry : access_points) {
      if (entry.node == ap) entry.active = active;
    }
  }

  void set_mobility(NodeId node, std::unique_ptr<sim::MobilityModel> model) {
    mobility[node] = model.get();
    medium.set_mobility(node, std::move(model));
  }

  // --- the reference -----------------------------------------------------

  sim::Vec2 reference_position(NodeId node) const {
    return mobility.at(node)->position_at(simulator.now());
  }

  double reference_attenuated(double physical, NodeId a, NodeId b) const {
    if (physical <= 0.0) return physical;
    return physical * std::clamp(plane.signal_factor(a, b), 0.0, 1.0);
  }

  double reference_signal(NodeId a, NodeId b, const TechProfile& profile) const {
    if (a == b) return 0.0;
    const auto& by_node = adapters[static_cast<std::size_t>(profile.tech)];
    const auto ia = by_node.find(a);
    const auto ib = by_node.find(b);
    if (ia == by_node.end() || ib == by_node.end() ||
        !ia->second->powered() || !ib->second->powered()) {
      return 0.0;
    }
    if (profile.via_gateway) return reference_attenuated(1.0, a, b);
    if (profile.infrastructure) {
      const sim::Vec2 pos_a = reference_position(a);
      const sim::Vec2 pos_b = reference_position(b);
      double best_a = 0.0, best_b = 0.0;
      for (const AccessPoint& ap : access_points) {
        if (!ap.active) continue;
        best_a = std::max(best_a, falloff(sim::distance(pos_a, ap.position),
                                          ap.range_m));
        best_b = std::max(best_b, falloff(sim::distance(pos_b, ap.position),
                                          ap.range_m));
      }
      return reference_attenuated(std::min(best_a, best_b), a, b);
    }
    return reference_attenuated(
        falloff(sim::distance(reference_position(a), reference_position(b)),
                profile.range_m),
        a, b);
  }

  std::vector<NodeId> reference_in_range(NodeId node,
                                         const TechProfile& profile) const {
    std::vector<NodeId> out;
    for (const auto& [peer, adapter] :
         adapters[static_cast<std::size_t>(profile.tech)]) {
      if (peer == node || !adapter->powered()) continue;
      if (reference_signal(node, peer, profile) > 0.0) out.push_back(peer);
    }
    return out;
  }
};

class SpatialPropertyTest : public ::testing::Test {
 protected:
  /// Compares every node's neighbourhood and every pair's signal against
  /// the reference, for one profile. Returns the number of range queries
  /// issued.
  std::size_t compare_profile(const TechProfile& profile) {
    for (NodeId node : world_.nodes) {
      EXPECT_EQ(world_.medium.nodes_in_range(node, profile),
                world_.reference_in_range(node, profile))
          << "node " << node << " tech " << profile.name << " at t="
          << world_.simulator.now();
    }
    for (NodeId a : world_.nodes) {
      for (NodeId b : world_.nodes) {
        EXPECT_EQ(world_.medium.signal(a, b, profile),
                  world_.reference_signal(a, b, profile))
            << "pair " << a << "->" << b << " tech " << profile.name
            << " at t=" << world_.simulator.now();
      }
    }
    return world_.nodes.size();
  }

  World world_;
};

TEST_F(SpatialPropertyTest, GridEquivalentToBruteForceThroughoutScenario) {
  const TechProfile bt = bluetooth_2_0();
  const TechProfile infra = wlan_80211b_infrastructure();
  const TechProfile cell = gprs();
  std::size_t range_queries = 0;

  const auto compare_all = [&] {
    return compare_profile(bt) + compare_profile(infra) + compare_profile(cell);
  };

  for (int step = 0; step < 30; ++step) {
    world_.simulator.run_until(sim::milliseconds(500) * (step + 1));
    range_queries += compare_all();

    // Mid-run world mutations, applied after the comparison above has
    // filled the memo and the grid at this very timestamp: each one is an
    // invalidation hazard, so compare again before time moves on.
    bool mutated = true;
    if (step == 10) {
      world_.medium.adapter(world_.nodes[2], Technology::bluetooth)
          ->set_powered(false);
      world_.medium.adapter(world_.nodes[3], Technology::bluetooth)
          ->set_powered(true);  // was off via the i%7 rule
    } else if (step == 15) {
      world_.set_access_point_active(world_.ap1, false);
    } else if (step == 20) {
      world_.set_mobility(world_.nodes[5], std::make_unique<sim::StaticMobility>(
                                               sim::Vec2{10, 10}));
    } else if (step == 25) {
      world_.set_access_point_active(world_.ap1, true);
    } else {
      mutated = false;
    }
    if (mutated) range_queries += compare_all();
  }

  // The acceptance bar: a meaningful sample size, not a handful of spots.
  EXPECT_GE(range_queries, 1000u);

  // The equivalence must have been against the fast path: the Medium must
  // actually have used the grid and both caches.
  const obs::Snapshot stats = world_.medium.stats();
  EXPECT_GT(stats.counter("spatial.queries"), 0u);
  EXPECT_GT(stats.counter("spatial.pairs_pruned"), 0u);
  EXPECT_GT(stats.counter("position_cache.hits"), 0u);
  EXPECT_GT(stats.counter("signal_cache.hits"), 0u);
}

}  // namespace
}  // namespace ph::net
