// Transport conformance suite.
//
// Every behaviour the PeerHood middleware relies on is asserted here
// against BOTH backends — the simulated medium (SimTransport) and real
// UNIX-domain sockets (SocketTransport) — via one parameterized fixture.
// If a new backend appears, adding it to the instantiation list below is
// the whole certification step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/medium.hpp"
#include "obs/metrics.hpp"
#include "peerhood/stack.hpp"
#include "sim/simulator.hpp"
#include "tests/testutil/flight_guard.hpp"
#include "transport/sim_transport.hpp"
#include "transport/socket_transport.hpp"

namespace ph::transport {
namespace {

// Latencies compressed so a full run (discovery + handshake + handover)
// stays well under a second of wall clock on both substrates.
net::TechProfile quick_bt() {
  net::TechProfile p = net::bluetooth_2_0();
  p.inquiry_duration = sim::milliseconds(200);
  p.inquiry_detect_prob = 1.0;
  p.connect_latency = sim::milliseconds(20);
  p.base_latency = sim::milliseconds(5);
  return p;
}

net::TechProfile quick_wlan() {
  net::TechProfile p = net::wlan_80211b();
  p.inquiry_duration = sim::milliseconds(100);
  p.inquiry_detect_prob = 1.0;
  p.connect_latency = sim::milliseconds(10);
  p.base_latency = sim::milliseconds(2);
  return p;
}

/// One world per test: a transport plus whatever substrate objects it
/// needs alive underneath.
struct World {
  virtual ~World() = default;
  virtual Transport& transport() = 0;
};

struct SimWorld final : World {
  sim::Simulator simulator;
  net::Medium medium{simulator, sim::Rng(7)};
  SimTransport sim_transport{medium};
  Transport& transport() override { return sim_transport; }
};

struct SocketWorld final : World {
  SocketTransport socket_transport{[] {
    SocketTransportConfig config;
    // 1 virtual second per 2 wall milliseconds: the compressed protocol
    // cadences above run in tens of milliseconds of wall clock.
    config.time_scale = 500.0;
    config.seed = 7;
    return config;
  }()};
  Transport& transport() override { return socket_transport; }
};

class TransportConformance : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "sim") {
      world_ = std::make_unique<SimWorld>();
    } else {
      world_ = std::make_unique<SocketWorld>();
    }
    transport_ = &world_->transport();
    // Arm the flight recorder on the backend's own journal: a failing
    // socket-backend test dumps a Perfetto-loadable recording exactly
    // like the sim integration suites do.
    guard_ = std::make_unique<testutil::FlightGuard>(transport_->trace());
  }

  void TearDown() override { guard_.reset(); }

  /// Pumps the substrate in small virtual-time slices until `pred` holds
  /// or `limit` virtual time elapses.
  template <typename Pred>
  bool pump_until(Pred pred, sim::Duration limit,
                  sim::Duration step = sim::milliseconds(100)) {
    Scheduler& s = transport_->scheduler();
    const sim::Time deadline = s.now() + limit;
    while (s.now() < deadline) {
      if (pred()) return true;
      s.run_until(std::min(deadline, s.now() + step));
    }
    return pred();
  }

  std::unique_ptr<World> world_;
  Transport* transport_ = nullptr;
  // Declared after world_: the guard dumps from the transport's trace, so
  // it must be destroyed first.
  std::unique_ptr<testutil::FlightGuard> guard_;
};

TEST_P(TransportConformance, ReportsBackendIdentity) {
  const std::string name = transport_->name();
  EXPECT_TRUE(name == "sim" || name == "socket");
  EXPECT_EQ(name == "sim", transport_->simulated());
}

TEST_P(TransportConformance, DatagramDelivery) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  Endpoint& eb = transport_->add_endpoint(b, quick_bt());

  std::vector<std::pair<DeviceId, std::string>> got;
  eb.bind(4000, [&](DeviceId src, BytesView payload) {
    got.emplace_back(src, to_text(payload));
  });
  ea.send_datagram(b, 4000, to_bytes("hello over any substrate"));
  ASSERT_TRUE(pump_until([&] { return !got.empty(); }, sim::seconds(5)));
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, a);
  EXPECT_EQ(got[0].second, "hello over any substrate");

  // Unbinding stops delivery.
  eb.unbind(4000);
  ea.send_datagram(b, 4000, to_bytes("into the void"));
  pump_until([] { return false; }, sim::seconds(1));
  EXPECT_EQ(got.size(), 1u);
}

TEST_P(TransportConformance, InquiryFindsPoweredPeers) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  const DeviceId c = transport_->add_device("c", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  transport_->add_endpoint(b, quick_bt());
  Endpoint& ec = transport_->add_endpoint(c, quick_bt());
  ec.set_powered(false);

  bool done = false;
  std::vector<DeviceId> found;
  ea.start_inquiry([&](std::vector<DeviceId> ids) {
    found = std::move(ids);
    done = true;
  });
  ASSERT_TRUE(pump_until([&] { return done; }, sim::seconds(5)));
  EXPECT_EQ(found, std::vector<DeviceId>{b});  // c is powered off, a is self
  EXPECT_GT(ea.signal_to(b), 0.0);
  EXPECT_FALSE(ec.powered());
}

TEST_P(TransportConformance, ChannelOpenExchangeClose) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  Endpoint& eb = transport_->add_endpoint(b, quick_bt());

  Channel server;
  std::vector<std::string> server_got;
  bool server_broke = false;
  eb.listen(5000, [&](Channel channel) {
    server = channel;
    server.on_receive([&](BytesView payload) {
      server_got.push_back(to_text(payload));
      server.send(to_bytes("ack:" + server_got.back()));
    });
    server.on_break([&] { server_broke = true; });
  });

  Channel client;
  std::vector<std::string> client_got;
  ea.connect(b, 5000, [&](Result<Channel> result) {
    ASSERT_TRUE(bool(result)) << result.error().to_string();
    client = *result;
    client.on_receive(
        [&](BytesView payload) { client_got.push_back(to_text(payload)); });
  });
  ASSERT_TRUE(pump_until([&] { return client.valid() && server.valid(); },
                         sim::seconds(5)));
  EXPECT_EQ(client.remote_node(), b);
  EXPECT_EQ(server.remote_node(), a);
  EXPECT_EQ(client.technology(), net::Technology::bluetooth);
  EXPECT_GT(client.signal(), 0.0);

  client.send(to_bytes("payload"));
  ASSERT_TRUE(pump_until([&] { return !client_got.empty(); }, sim::seconds(5)));
  EXPECT_EQ(server_got, std::vector<std::string>{"payload"});
  EXPECT_EQ(client_got, std::vector<std::string>{"ack:payload"});

  // Local close is silent locally, a break remotely.
  client.close();
  EXPECT_FALSE(client.open());
  ASSERT_TRUE(pump_until([&] { return server_broke; }, sim::seconds(5)));
}

TEST_P(TransportConformance, ChannelDeliversInOrderExactlyOnce) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  Endpoint& eb = transport_->add_endpoint(b, quick_bt());

  constexpr int kMessages = 64;
  std::vector<int> received;
  Channel server;
  eb.listen(5000, [&](Channel channel) {
    server = channel;
    server.on_receive([&](BytesView payload) {
      received.push_back(std::stoi(to_text(payload)));
    });
  });
  Channel client;
  ea.connect(b, 5000, [&](Result<Channel> result) {
    ASSERT_TRUE(bool(result)) << result.error().to_string();
    client = *result;
    for (int i = 0; i < kMessages; ++i) {
      client.send(to_bytes(std::to_string(i)));
    }
  });
  ASSERT_TRUE(pump_until(
      [&] { return received.size() == static_cast<std::size_t>(kMessages); },
      sim::seconds(10)));
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(received[i], i);
}

// A peer that sends its last messages and closes in the same turn must not
// lose the tail: every frame written before the close is delivered, in
// order, before the receiver's break fires. (The socket backend once
// dropped frames drained in the same readiness event as the EOF.)
TEST_P(TransportConformance, CloseAfterSendDeliversTailBeforeBreak) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  Endpoint& eb = transport_->add_endpoint(b, quick_bt());

  std::vector<std::string> server_got;
  bool server_broke = false;
  bool broke_before_tail = false;
  Channel server;
  eb.listen(5000, [&](Channel channel) {
    server = channel;
    server.on_receive(
        [&](BytesView payload) { server_got.push_back(to_text(payload)); });
    server.on_break([&] {
      server_broke = true;
      broke_before_tail = server_got.size() < 3;
    });
  });
  Channel client;
  ea.connect(b, 5000, [&](Result<Channel> result) {
    ASSERT_TRUE(bool(result)) << result.error().to_string();
    client = *result;
    client.send(to_bytes("tail-1"));
    client.send(to_bytes("tail-2"));
    client.send(to_bytes("tail-3"));
    client.close();
  });
  ASSERT_TRUE(pump_until([&] { return server_broke; }, sim::seconds(10)));
  EXPECT_FALSE(broke_before_tail);
  EXPECT_EQ(server_got,
            (std::vector<std::string>{"tail-1", "tail-2", "tail-3"}));
}

// Data the peer sends immediately after the handshake may arrive coalesced
// with the handshake reply — before the caller has even seen the Channel.
// It must wait for the receive handler, not be consumed into the void.
// (The socket backend once parsed such leftover bytes inside accept/connect
// settlement, dropping them while on_receive was still unset.)
TEST_P(TransportConformance, DataBehindHandshakeWaitsForReceiveHandler) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  Endpoint& eb = transport_->add_endpoint(b, quick_bt());

  Channel server;
  eb.listen(5000, [&](Channel channel) {
    server = channel;
    // Fires before the client's connect callback can run: on the socket
    // backend these bytes ride right behind the channel_accept frame.
    server.send(to_bytes("greeting"));
  });
  Channel client;
  std::vector<std::string> client_got;
  ea.connect(b, 5000, [&](Result<Channel> result) {
    ASSERT_TRUE(bool(result)) << result.error().to_string();
    client = *result;
    client.on_receive(
        [&](BytesView payload) { client_got.push_back(to_text(payload)); });
  });
  ASSERT_TRUE(pump_until([&] { return !client_got.empty(); }, sim::seconds(5)));
  EXPECT_EQ(client_got, std::vector<std::string>{"greeting"});
}

TEST_P(TransportConformance, ConnectErrors) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  transport_->add_endpoint(b, quick_bt());

  // Nobody listening on the port: connect_failed.
  bool refused = false;
  ea.connect(b, 6000, [&](Result<Channel> result) {
    ASSERT_FALSE(bool(result));
    EXPECT_EQ(result.error().code, Errc::connect_failed);
    refused = true;
  });
  ASSERT_TRUE(pump_until([&] { return refused; }, sim::seconds(5)));

  // Device that has no endpoint at all: unreachable.
  bool unreachable = false;
  ea.connect(b + 100, 6000, [&](Result<Channel> result) {
    ASSERT_FALSE(bool(result));
    EXPECT_EQ(result.error().code, Errc::device_unreachable);
    unreachable = true;
  });
  ASSERT_TRUE(pump_until([&] { return unreachable; }, sim::seconds(5)));
}

TEST_P(TransportConformance, PowerOffBreaksChannels) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  Endpoint& eb = transport_->add_endpoint(b, quick_bt());

  Channel server;
  eb.listen(5000, [&](Channel channel) { server = channel; });
  Channel client;
  bool client_broke = false;
  ea.connect(b, 5000, [&](Result<Channel> result) {
    ASSERT_TRUE(bool(result)) << result.error().to_string();
    client = *result;
    client.on_break([&] { client_broke = true; });
  });
  ASSERT_TRUE(pump_until([&] { return client.valid() && server.valid(); },
                         sim::seconds(5)));

  eb.set_powered(false);
  ASSERT_TRUE(pump_until([&] { return client_broke; }, sim::seconds(5)));
  EXPECT_FALSE(client.open());
  EXPECT_EQ(ea.signal_to(b), 0.0);
}

// The whole middleware over both substrates: two devices discover each
// other, a session opens, the carrying radio dies on both sides, and the
// session resumes over the second radio without losing a message.
TEST_P(TransportConformance, SessionResumesAfterRadioDrop) {
  using peerhood::Connection;
  using peerhood::Stack;
  using peerhood::StackConfig;

  peerhood::DaemonConfig daemon_config;
  daemon_config.inquiry_interval = sim::seconds(1);
  daemon_config.ping_interval = sim::milliseconds(500);
  daemon_config.reply_timeout = sim::milliseconds(200);

  Stack alpha(StackConfig{}
                  .with_name("alpha")
                  .with_radios({quick_bt(), quick_wlan()})
                  .with_daemon(daemon_config)
                  .with_transport(*transport_));
  Stack beta(StackConfig{}
                 .with_name("beta")
                 .with_radios({quick_bt(), quick_wlan()})
                 .with_daemon(daemon_config)
                 .with_transport(*transport_));

  std::vector<std::string> beta_got;
  Connection beta_side;
  ASSERT_TRUE(bool(beta.library().register_service(
      "echo", {}, [&](Connection connection) {
        beta_side = connection;
        beta_side.on_message(
            [&](BytesView payload) { beta_got.push_back(to_text(payload)); });
      })));

  ASSERT_TRUE(pump_until(
      [&] { return !alpha.library().find_service("echo").empty(); },
      sim::seconds(30)));

  Connection conn;
  peerhood::ConnectOptions options;
  options.resume_retry_interval = sim::milliseconds(100);
  options.monitor_interval = sim::milliseconds(200);
  alpha.library().connect(beta.id(), "echo", options,
                          [&](Result<Connection> result) {
                            ASSERT_TRUE(bool(result))
                                << result.error().to_string();
                            conn = *result;
                          });
  ASSERT_TRUE(pump_until([&] { return conn.valid(); }, sim::seconds(10)));

  conn.send(to_bytes("before-drop"));
  ASSERT_TRUE(
      pump_until([&] { return beta_got.size() == 1; }, sim::seconds(10)));

  // Kill the radio carrying the session on BOTH devices; the session must
  // hop to the remaining technology and keep delivering.
  const net::Technology carrying = conn.current_technology();
  ASSERT_TRUE(bool(alpha.set_radio_powered(carrying, false)));
  ASSERT_TRUE(bool(beta.set_radio_powered(carrying, false)));
  conn.send(to_bytes("after-drop"));
  ASSERT_TRUE(
      pump_until([&] { return beta_got.size() == 2; }, sim::seconds(30)));
  EXPECT_GE(conn.handover_count(), 1);
  EXPECT_NE(conn.current_technology(), carrying);
  EXPECT_EQ(beta_got[0], "before-drop");
  EXPECT_EQ(beta_got[1], "after-drop");

  conn.close();
  pump_until([&] { return !beta_side.open(); }, sim::seconds(5));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TransportConformance, ::testing::Values("sim", "socket"),
    [](const auto& info) { return std::string(info.param); });

// Both backends must register the same substrate-independent `transport.*`
// metric schema — same names, same instrument kinds — so dashboards and
// the ops plane read identically whichever substrate runs underneath.
// Socket-only internals live under `transport.socket.*` and are excluded.
TEST(TransportMetricParity, BackendsRegisterSameTransportFamilies) {
  struct Schema {
    std::vector<std::string> counters;
    std::vector<std::string> gauges;
    std::vector<std::string> histograms;
  };
  const auto common_schema = [](obs::Registry& registry) {
    Schema schema;
    const auto is_common = [](const std::string& name) {
      return name.starts_with("transport.") &&
             !name.starts_with("transport.socket.");
    };
    for (const auto& [name, counter] : registry.counters()) {
      if (is_common(name)) schema.counters.push_back(name);
    }
    for (const auto& [name, gauge] : registry.gauges()) {
      if (is_common(name)) schema.gauges.push_back(name);
    }
    for (const auto& [name, histogram] : registry.histograms()) {
      if (is_common(name)) schema.histograms.push_back(name);
    }
    return schema;
  };

  SimWorld sim_world;
  SocketWorld socket_world;
  const Schema sim_schema = common_schema(sim_world.transport().registry());
  const Schema socket_schema =
      common_schema(socket_world.transport().registry());

  EXPECT_FALSE(sim_schema.counters.empty());
  EXPECT_FALSE(sim_schema.histograms.empty());
  EXPECT_EQ(sim_schema.counters, socket_schema.counters);
  EXPECT_EQ(sim_schema.gauges, socket_schema.gauges);
  EXPECT_EQ(sim_schema.histograms, socket_schema.histograms);
}

// The simulated backend's `transport.*` values, pinned. A scripted exchange
// runs between two transport endpoints (a, b) and one radio (c) created
// straight on the Medium: only traffic through transport endpoints counts,
// in both directions of a channel, a break counts even on a side with no
// break handler installed, and sends count even when nothing goes out.
TEST(SimTransportMetrics, ScriptedExchangeCountsExactly) {
  SimWorld world;
  Transport& transport = world.transport();
  net::TechProfile wlan = quick_wlan();
  wlan.frame_loss = 0.0;
  const DeviceId a = transport.add_device("a", nullptr);
  const DeviceId b = transport.add_device("b", nullptr);
  Endpoint& ea = transport.add_endpoint(a, wlan);
  Endpoint& eb = transport.add_endpoint(b, wlan);
  const net::NodeId c = world.medium.add_node(
      "c", std::make_unique<sim::StaticMobility>(sim::Vec2{0.0, 0.0}));
  net::Adapter& raw = world.medium.add_adapter(c, wlan);
  const auto settle = [&] { transport.scheduler().run_for(sim::seconds(1)); };

  // Datagrams: unicast and broadcast from a, unicast from the raw radio.
  int b_datagrams = 0;
  int c_datagrams = 0;
  eb.bind(4000, [&](DeviceId, BytesView) { ++b_datagrams; });
  raw.bind(4000, [&](net::NodeId, BytesView) { ++c_datagrams; });
  ea.send_datagram(b, 4000, to_bytes("ping"));
  ea.broadcast_datagram(4000, to_bytes("hello!"));
  raw.send_datagram(b, 4000, to_bytes("raw"));
  settle();
  ASSERT_EQ(b_datagrams, 3);
  ASSERT_EQ(c_datagrams, 1);

  // b echoes on port 5000 and never installs a break handler.
  std::vector<Channel> accepted;
  eb.listen(5000, [&](Channel channel) {
    accepted.push_back(channel);
    const std::size_t i = accepted.size() - 1;
    accepted[i].on_receive([&accepted, i](BytesView payload) {
      accepted[i].send(to_bytes("ack:" + to_text(payload)));
    });
  });
  Channel client;
  std::string client_got;
  bool client_broke = false;
  ea.connect(b, 5000, [&](Result<Channel> result) {
    ASSERT_TRUE(bool(result)) << result.error().to_string();
    client = *result;
    client.on_receive(
        [&](BytesView payload) { client_got = to_text(payload); });
    client.on_break([&] { client_broke = true; });
    client.send(to_bytes("payload"));
  });
  // The raw radio opens to b and speaks once; b's echo goes unread.
  raw.connect(b, 5000, [&](auto result) {
    ASSERT_TRUE(bool(result));
    auto link = *result;
    link.send(to_bytes("hi"));
  });
  // b opens to the raw radio, which sends one message and closes.
  raw.listen(6000, [&](auto link) {
    link.send(to_bytes("raw-hi"));
    link.close();
  });
  Channel to_c;
  std::string from_c;
  eb.connect(c, 6000, [&](Result<Channel> result) {
    ASSERT_TRUE(bool(result)) << result.error().to_string();
    to_c = *result;
    to_c.on_receive([&](BytesView payload) { from_c = to_text(payload); });
  });
  settle();
  ASSERT_EQ(client_got, "ack:payload");
  ASSERT_EQ(from_c, "raw-hi");
  ASSERT_EQ(accepted.size(), 2u);
  ASSERT_FALSE(to_c.open());

  // Powering a off breaks a<->b on both sides, b's without a handler.
  ea.set_powered(false);
  settle();
  ASSERT_TRUE(client_broke);
  // Sends through a dead channel or a powered-off endpoint still count.
  client.send(to_bytes("late"));
  ea.send_datagram(b, 4000, to_bytes("off"));
  settle();
  ASSERT_EQ(b_datagrams, 3);

  std::map<std::string, std::uint64_t> counters;
  for (const auto& [name, counter] : transport.registry().counters()) {
    if (name.starts_with("transport.")) counters[name] = counter->value();
  }
  const std::map<std::string, std::uint64_t> expected = {
      {"transport.bad_frames", 0},
      {"transport.channel_bytes", 7 + 7 + 11 + 11 + 2 + 6 + 6 + 4},
      {"transport.channel_messages", 4},
      {"transport.channels_accepted", 2},
      {"transport.channels_broken", 3},
      {"transport.channels_opened", 2},
      {"transport.datagram_bytes", 4 + 6 + 3},
      {"transport.datagrams_received", 3},
      {"transport.datagrams_sent", 3},
  };
  EXPECT_EQ(counters, expected);
  EXPECT_EQ(transport.registry().histogram("transport.handshake_us").count(),
            0u);
  EXPECT_EQ(transport.registry().histogram("transport.channel_rtt_us").count(),
            0u);
}

}  // namespace
}  // namespace ph::transport
