// Allocation budgets of the steady-state hot paths.
//
// Counts heap allocations through the tests/testutil/alloc_counter
// interposer, then drives a warmed-up Simulator through hundreds of
// thousands of events —
// self-rescheduling chains across all wheel slots, schedule/cancel churn,
// periodic tasks — and asserts the allocation counter does not move.
// This is the property the whole event-kernel design (timer wheel + SBO
// EventFn + FlatIdSet + slot-vector reuse) exists to provide; a regression
// in any of those layers (a closure growing past the inline buffer, a
// vector losing its capacity, a set re-hashing per op) fails this test.
// The same interposer pins the profiler's hot paths, obs::Sampler's
// steady-state scrape, the spatial grid's rebuild, the wire codecs, the
// Medium's signal memo and the message path from link receive handler up
// to a community RPC, and a warm session echo on both substrates.
//
// Lives in its own binary: the interposer is process-global and must not
// contaminate unrelated tests.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "community/client.hpp"
#include "community/server.hpp"
#include "net/medium.hpp"
#include "net/spatial.hpp"
#include "obs/prof.hpp"
#include "obs/sampler.hpp"
#include "peerhood/stack.hpp"
#include "proto/daemon.hpp"
#include "proto/messages.hpp"
#include "sim/simulator.hpp"
#include "tests/testutil/alloc_counter.hpp"
#include "transport/sim_transport.hpp"
#include "transport/socket_transport.hpp"

namespace ph::sim {
namespace {

/// A self-rescheduling event chain with a fixed period; the closure
/// captures 24 bytes, comfortably inside EventFn's inline buffer.
void arm_chain(Simulator& simulator, Duration period, std::uint64_t* fired) {
  simulator.schedule(period, [&simulator, period, fired] {
    ++*fired;
    arm_chain(simulator, period, fired);
  });
}

TEST(SimulatorAllocation, SteadyStateSchedulesWithoutHeapAllocation) {
  Simulator simulator;  // timer wheel (the default)
  std::uint64_t fired = 0;

  // Chain periods are powers of two, phase-locked to the wheel's 2^18 us
  // level-1 window: every slot's occupancy pattern then repeats exactly
  // each level-2 revolution (2^26 us ≈ 67 s), so each slot vector's
  // high-water capacity is provably reached during warm-up and the
  // steady-state assertion below is deterministic. (Co-prime periods
  // drift against the windows and keep finding new worst-case slot
  // alignments — new capacity growths — for the lcm of all periods.)
  // 2^21 parks at level 1, 2^27 at level 2; short chains cross window
  // boundaries and exercise transient level-1 parking plus cascades.
  for (Duration period : {1'024u, 2'048u, 4'096u, 16'384u, 65'536u,
                          2'097'152u, 134'217'728u}) {
    arm_chain(simulator, period, &fired);
  }
  // Schedule/cancel churn, one level-1 window ahead: exercises
  // note_cancelled and the compaction path on every slot in turn.
  std::uint64_t cancel_victims = 0;
  simulator.schedule_periodic(Duration{4'096}, [&simulator,
                                                &cancel_victims] {
    const EventId doomed = simulator.schedule(
        Duration{262'144}, [&cancel_victims] { ++cancel_victims; });
    simulator.cancel(doomed);
  });

  // Warm-up: two full level-2 revolutions plus slack, covering the 2^27
  // chain's first parking and every slot the churn walks.
  simulator.run_until(seconds(170.0));
  ASSERT_GT(fired, 1'000u);

  const std::uint64_t fired_before = fired;
  const std::size_t allocations_before = testutil::allocations();
  simulator.run_until(seconds(180.0));
  const std::size_t allocations_after = testutil::allocations();
  const std::uint64_t events = fired - fired_before;

  ASSERT_GT(events, 10'000u);
  EXPECT_EQ(allocations_after, allocations_before)
      << "steady-state kernel made "
      << (allocations_after - allocations_before) << " heap allocations over "
      << events << " events";
  EXPECT_EQ(cancel_victims, 0u);
}

TEST(SimulatorAllocation, ProfAttributionHotPathAllocatesNothing) {
  // Mode 1 attribution rides the dispatch loop: count() plus, with the
  // wall plane armed, two clock reads and observe_wall()'s bucket math.
  // None of it may allocate — the profiler would otherwise disqualify
  // itself from the always-on default the overhead budget promises.
  Simulator simulator;
  obs::prof::EventProfiler prof;
  prof.enable_wall(true);
  simulator.set_profiler(&prof);

  std::uint64_t fired = 0;
  {
    const obs::prof::TagScope tag(obs::prof::Center::peerhood_ping);
    for (Duration period : {1'024u, 4'096u, 65'536u}) {
      arm_chain(simulator, period, &fired);
    }
  }
  simulator.run_until(seconds(2.0));
  ASSERT_GT(fired, 1'000u);
  ASSERT_GT(prof.cost(obs::prof::Center::peerhood_ping).events, 1'000u);

  const std::uint64_t fired_before = fired;
  const std::size_t allocations_before = testutil::allocations();
  simulator.run_until(seconds(6.0));
  const std::size_t allocations_after = testutil::allocations();

  ASSERT_GT(fired - fired_before, 4'000u);
  EXPECT_EQ(allocations_after, allocations_before)
      << "profiled steady state made "
      << (allocations_after - allocations_before) << " heap allocations";
  // The causal chain kept its root tag the whole run.
  EXPECT_EQ(prof.cost(obs::prof::Center::peerhood_ping).events, fired);
  EXPECT_GT(prof.cost(obs::prof::Center::peerhood_ping).wall_count, 0u);
}

TEST(SimulatorAllocation, ProfSamplerRingWritesAllocateNothing) {
  // Mode 2's per-thread rings are sized at registration; sample_once()
  // afterwards only writes fixed Sample slots — through ring wrap-around.
  obs::prof::WallProfilerConfig config;
  config.ring_capacity = 512;
  obs::prof::WallProfiler profiler(config);
  profiler.register_thread("main");

  const obs::prof::Scope outer(obs::prof::Center::transport_io);
  const std::size_t allocations_before = testutil::allocations();
  for (int i = 0; i < 2'000; ++i) {  // ~4x the ring: exercises the wrap
    const obs::prof::Scope inner(obs::prof::Center::transport_telemetry);
    profiler.sample_once();
  }
  const std::size_t allocations_after = testutil::allocations();

  EXPECT_EQ(allocations_after, allocations_before)
      << "sampler ring writes made "
      << (allocations_after - allocations_before) << " heap allocations";
  EXPECT_EQ(profiler.samples_taken(), 2'000u);
  profiler.unregister_thread();
  // The folded readout (cold path, allocation expected) still sees the
  // retired thread: the ring keeps the newest `ring_capacity` samples,
  // all of them under the two scopes held above.
  const obs::prof::FoldedProfile folded = profiler.folded();
  ASSERT_EQ(folded.size(), 1u);
  const auto& [stack, count] = *folded.begin();
  EXPECT_EQ(stack, "main;transport.io;transport.telemetry");
  EXPECT_EQ(count, config.ring_capacity);
}

TEST(SimulatorAllocation, SamplerScrapeAllocatesNothingOnceRegistryIsStable) {
  // A scrape walks flat cursor vectors that grow only when the registry
  // does: once no new metric has been registered, scraping — ring
  // wrap-around and dirty histograms included — must not allocate.
  obs::Registry registry;
  std::vector<obs::Counter*> counters;
  std::vector<obs::Gauge*> gauges;
  std::vector<obs::Histogram*> hists;
  const auto register_device = [&](int d) {
    const std::string prefix = "peerhood.daemon.d" + std::to_string(d) + ".";
    counters.push_back(&registry.counter(prefix + "pings_sent"));
    gauges.push_back(&registry.gauge(prefix + "neighbours"));
    hists.push_back(&registry.histogram(prefix + "discovery_us"));
  };
  for (int d = 0; d < 64; ++d) register_device(d);

  obs::Sampler sampler(registry, {.interval_us = 100'000, .capacity = 32});
  obs::TimePoint now = 100'000;
  sampler.sample(now);  // adopts every metric: cursors and rings

  const auto allocations_over = [&](int scrapes) {
    const std::size_t allocations_before = testutil::allocations();
    for (int i = 0; i < scrapes; ++i) {
      counters[static_cast<std::size_t>(i) % counters.size()]->inc(3);
      gauges[static_cast<std::size_t>(i * 7) % gauges.size()]->set(i);
      hists[static_cast<std::size_t>(i * 5) % hists.size()]->observe(
          1'000.0 * i);
      sampler.sample(now += 100'000);
    }
    return testutil::allocations() - allocations_before;
  };
  EXPECT_EQ(allocations_over(200), 0u)  // > 6x the ring: wraps every series
      << "steady-state scrapes allocated";

  // A late registration is the one thing that may allocate: its cursor and
  // rings are created by the next scrape, after which scrapes are free again.
  register_device(64);
  const std::size_t allocations_before = testutil::allocations();
  sampler.sample(now += 100'000);
  EXPECT_GT(testutil::allocations(), allocations_before);
  EXPECT_EQ(allocations_over(200), 0u) << "scrapes after a late registration";
  EXPECT_EQ(sampler.allocations(), sampler.series().size());
}

}  // namespace
}  // namespace ph::sim

namespace ph {
namespace {

using testutil::allocations_during;

net::TechProfile lossless_bt() {
  net::TechProfile bt = net::bluetooth_2_0();
  bt.frame_loss = 0.0;
  bt.inquiry_detect_prob = 1.0;
  return bt;
}

TEST(SpatialGridAllocation, WarmRebuildAllocatesNothing) {
  // The crowd's shape: 1280 positions, cells of half a Bluetooth range.
  std::vector<sim::Vec2> positions(1280);
  sim::Rng rng(3);
  const auto scatter = [&] {
    for (sim::Vec2& p : positions) {
      p = {rng.uniform(0.0, 360.0), rng.uniform(0.0, 360.0)};
    }
  };
  net::SpatialGrid grid;
  scatter();
  grid.rebuild(5.0, positions);  // cold: sizes the flat storage
  std::vector<std::uint32_t> out;
  out.reserve(positions.size());
  for (int round = 0; round < 20; ++round) {
    scatter();
    EXPECT_EQ(allocations_during([&] { grid.rebuild(5.0, positions); }), 0u)
        << "warm rebuild " << round;
    out.clear();
    EXPECT_EQ(allocations_during([&] {
                grid.query(positions[static_cast<std::size_t>(round)], 10.0,
                           out);
              }),
              0u);
    EXPECT_FALSE(out.empty());  // at least the query's own centre entry
  }
}

TEST(CodecAllocation, EncodeMakesOneAllocationPerMessage) {
  // Strings past the small-string buffer and non-empty lists: a writer
  // growing one push_back at a time would reallocate many times over.
  proto::Request request;
  request.op = proto::Opcode::ps_msg;
  request.requester = "requester-member-id";
  request.member_id = "target-member-id";
  request.mail = {"receiver-member", "sender-member",
                  "a subject line of some length", std::string(300, 'b'), 42};
  proto::Response response;
  response.op = proto::Opcode::ps_get_profile;
  response.names = {"first-name-in-list", "second-name-in-list"};
  response.profile.member_id = "profile-member-id";
  response.profile.about = std::string(200, 'a');
  for (int i = 0; i < 10; ++i) {
    response.profile.interests.push_back("interest number " +
                                         std::to_string(i));
    response.profile.comments.push_back(
        {"comment author " + std::to_string(i), std::string(80, 'c'), 7});
  }
  response.items = {{"shared-file-name.txt", 2048}};
  response.content = Bytes(2048, 0x5A);
  proto::DaemonMessage message;
  message.op = proto::DaemonOp::service_reply;
  message.device_name = "a-device-name-of-length";
  message.services = {{"PeerHoodCommunity", 1000,
                       {{"member", "alice-the-member"},
                        {"interests", "music;sports;films;coffee"}}}};

  Bytes out;
  EXPECT_EQ(allocations_during([&] { out = proto::encode(request); }), 1u);
  EXPECT_EQ(allocations_during([&] { out = proto::encode(response); }), 1u);
  EXPECT_EQ(allocations_during([&] { out = proto::encode(message); }), 1u);
  // The one allocation is exactly the message's size.
  EXPECT_EQ(out.capacity(), out.size());
  EXPECT_EQ(proto::decode_daemon_message(out).value(), message);
}

TEST(MediumAllocation, SignalMemoAllocatesNothingOnHitOrMiss) {
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(1));
  const net::TechProfile bt = lossless_bt();
  std::vector<net::NodeId> nodes;
  for (int i = 0; i < 24; ++i) {
    const net::NodeId id = medium.add_node(
        "n" + std::to_string(i),
        std::make_unique<sim::StaticMobility>(sim::Vec2{2.0 * i, 0.0}));
    medium.add_adapter(id, bt);
    nodes.push_back(id);
  }
  double sum = 0.0;
  // Every unordered pair twice per timestamp: (a,b) misses, (b,a) hits.
  const auto sweep = [&] {
    for (net::NodeId a : nodes) {
      for (net::NodeId b : nodes) sum += medium.signal(a, b, bt);
    }
  };
  sweep();  // warm: the memo table grows to one timestamp's pair count
  const auto evals_before = medium.stats().counter("signal_evals");
  const auto hits_before = medium.stats().counter("signal_cache.hits");
  const std::size_t made = allocations_during([&] {
    for (int t = 1; t <= 50; ++t) {
      simulator.run_until(sim::milliseconds(t));  // a new timestamp
      sweep();
    }
  });
  EXPECT_EQ(made, 0u) << "signal memo allocated in steady state";
  const std::uint64_t pairs = nodes.size() * (nodes.size() - 1) / 2;
  EXPECT_EQ(medium.stats().counter("signal_evals") - evals_before, 50 * pairs);
  EXPECT_EQ(medium.stats().counter("signal_cache.hits") - hits_before,
            50 * pairs);
  EXPECT_GT(sum, 0.0);
}

TEST(LinkAllocation, ReceiveHandlerIsCalledWithoutCopyingIt) {
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(2));
  const net::TechProfile bt = lossless_bt();
  const net::NodeId a = medium.add_node(
      "a", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
  const net::NodeId b = medium.add_node(
      "b", std::make_unique<sim::StaticMobility>(sim::Vec2{3, 0}));
  net::Adapter& ra = medium.add_adapter(a, bt);
  net::Adapter& rb = medium.add_adapter(b, bt);
  // The handler's captures (a shared_ptr and a string) put it beyond
  // std::function's inline buffer: every copy would allocate.
  auto delivered = std::make_shared<std::size_t>(0);
  const std::string tag(40, 't');
  transport::Channel server;
  rb.listen(9, [&](transport::Channel channel) {
    server = channel;
    server.on_receive([delivered, tag](BytesView data) {
      if (!data.empty() && !tag.empty()) ++*delivered;
    });
  });
  transport::Channel client;
  ra.connect(b, 9, [&](Result<transport::Channel> result) {
    ASSERT_TRUE(result.ok());
    client = *result;
  });
  simulator.run_all();
  ASSERT_TRUE(client.open());
  const Bytes payload(64, 0x5A);
  for (int i = 0; i < 64; ++i) client.send(payload);  // warm the pools
  simulator.run_all();
  const std::size_t made = allocations_during([&] {
    for (int i = 0; i < 1'000; ++i) {
      client.send(payload);
      simulator.run_all();
    }
  });
  EXPECT_EQ(made, 0u) << "sim channel send + receive handler allocated";
  EXPECT_EQ(*delivered, 1'064u);
}

/// Two stacks on one SimTransport, in range, with their daemons stopped
/// once they know each other: the steady state then carries only the
/// traffic a test sends.
struct TwoStacks {
  sim::Simulator simulator;
  net::Medium medium{simulator, sim::Rng(4)};
  transport::SimTransport transport{medium};
  std::unique_ptr<peerhood::Stack> a;
  std::unique_ptr<peerhood::Stack> b;

  TwoStacks() {
    peerhood::StackConfig config;
    config.radios = {lossless_bt()};
    a = std::make_unique<peerhood::Stack>(
        transport, peerhood::StackConfig(config).with_name("alpha"),
        std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
    b = std::make_unique<peerhood::Stack>(
        transport, peerhood::StackConfig(config).with_name("beta"),
        std::make_unique<sim::StaticMobility>(sim::Vec2{3, 0}));
  }

  /// Runs until `a` sees `service` on `b`, then stops both daemons.
  bool settle(std::string_view service) {
    while (simulator.now() < sim::minutes(2)) {
      simulator.run_for(sim::milliseconds(100));
      if (!a->library().find_service(service).empty()) {
        a->daemon().stop();
        b->daemon().stop();
        simulator.run_for(sim::seconds(5));  // drain in-flight traffic
        return true;
      }
    }
    return false;
  }
};

TEST(SessionAllocation, OnMessageIsCalledWithoutCopyingIt) {
  TwoStacks world;
  auto received = std::make_shared<std::size_t>(0);
  const std::string tag(40, 't');
  std::vector<peerhood::Connection> accepted;
  ASSERT_TRUE(world.b->library()
                  .register_service(
                      "sink", {},
                      [&](peerhood::Connection connection) {
                        connection.on_message(
                            [received, tag](BytesView data) {
                              if (!data.empty() && !tag.empty()) ++*received;
                            });
                        accepted.push_back(connection);
                      })
                  .ok());
  ASSERT_TRUE(world.settle("sink"));
  peerhood::Connection connection;
  world.a->library().connect(world.b->id(), "sink", {},
                             [&](Result<peerhood::Connection> result) {
                               ASSERT_TRUE(result.ok());
                               connection = *result;
                             });
  world.simulator.run_for(sim::seconds(1));
  ASSERT_TRUE(connection.open());
  const Bytes payload(64, 0x5A);
  for (int i = 0; i < 64; ++i) {  // warm: pools, unacked queue, spare frame
    connection.send(payload);
    world.simulator.run_for(sim::milliseconds(200));
  }
  constexpr std::size_t kMessages = 500;
  const std::size_t made = allocations_during([&] {
    for (std::size_t i = 0; i < kMessages; ++i) {
      connection.send(payload);
      world.simulator.run_for(sim::milliseconds(200));
    }
  });
  // The data frame the sender keeps until it is acknowledged reuses the
  // buffer of an acknowledged one; receive, delivery to on_message and
  // both acks allocate nothing.
  EXPECT_EQ(made, 0u);
  EXPECT_EQ(*received, 64 + kMessages);
}

TEST(SocketSessionAllocation, WarmEchoAllocatesNothing) {
  // One PeerHood session over real UNIX-domain sockets, one 64 B message
  // in flight, echoed by the peer. Daemons are stopped once discovery is
  // done, so the loop carries only the echo: its frames, the acks, the fd
  // dispatch and the session frames must all run on reused buffers.
  transport::SocketTransportConfig config;
  config.time_scale = 20.0;  // discovery rounds in wall milliseconds
  transport::SocketTransport transport(config);
  transport::Scheduler& scheduler = transport.scheduler();
  net::TechProfile bt = lossless_bt();
  bt.inquiry_duration = sim::milliseconds(200);
  peerhood::DaemonConfig daemon;
  daemon.inquiry_interval = sim::seconds(1);
  const auto make_stack = [&](const char* name) {
    return std::make_unique<peerhood::Stack>(peerhood::StackConfig{}
                                                 .with_name(name)
                                                 .with_radios({bt})
                                                 .with_daemon(daemon)
                                                 .with_transport(transport));
  };
  auto a = make_stack("alpha");
  auto b = make_stack("beta");
  std::vector<peerhood::Connection> hosted;
  const auto serve_echo = [&hosted](peerhood::Connection connection) {
    hosted.push_back(connection);
    connection.on_message([connection](BytesView request) mutable {
      connection.send(request);
    });
  };
  ASSERT_TRUE(b->library().register_service("echo", {}, serve_echo).ok());
  // Pumps the loop until `done` or a minute of virtual time (3 s wall).
  const auto pump = [&](auto done) {
    const sim::Time deadline = scheduler.now() + sim::minutes(1);
    while (!done() && scheduler.now() < deadline) {
      scheduler.run_until(scheduler.now() + sim::milliseconds(1));
    }
    return done();
  };
  ASSERT_TRUE(pump([&] { return !a->library().find_service("echo").empty(); }));
  a->daemon().stop();
  b->daemon().stop();
  scheduler.run_until(scheduler.now() + sim::seconds(1));  // drain
  peerhood::ConnectOptions options;
  options.seamless = false;  // no signal monitor timers
  peerhood::Connection connection;
  a->library().connect(b->id(), "echo", options,
                       [&](Result<peerhood::Connection> result) {
                         ASSERT_TRUE(result.ok());
                         connection = *result;
                       });
  ASSERT_TRUE(pump([&] { return connection.valid(); }));
  std::size_t echoes = 0;
  connection.on_message([&echoes](BytesView) { ++echoes; });
  const Bytes payload(64, 0x5A);
  bool stalled = false;
  const auto echo = [&] {
    const std::size_t before = echoes;
    connection.send(payload);
    stalled = stalled || !pump([&] { return echoes > before; });
  };
  for (int i = 0; i < 64; ++i) echo();  // warm
  constexpr std::size_t kMessages = 500;
  const std::size_t made = allocations_during([&] {
    for (std::size_t i = 0; i < kMessages; ++i) echo();
  });
  EXPECT_FALSE(stalled);
  EXPECT_EQ(echoes, 64 + kMessages);
  EXPECT_EQ(made, 0u) << "per echo: " << static_cast<double>(made) / kMessages;
  connection.close();
  hosted.clear();
}

TEST(CommunityAllocation, SteadyStateRpcStaysWithinBudget) {
  // One full Figure-11 RPC per iteration: open a PeerHood session, send
  // the request, decode it on the server, answer, decode the answer,
  // close. The budget is what the message path costs today; a change
  // that adds a copy or a clone on it fails here.
  constexpr std::size_t kBudgetPerRpc = 29;
  TwoStacks world;
  community::ProfileStore store;
  community::SemanticDictionary dictionary;
  ASSERT_TRUE(store.create_account("bob-the-member", "pw").ok());
  ASSERT_TRUE(store.login("bob-the-member", "pw").ok());
  community::CommunityServer server(world.b->library(), store, dictionary);
  ASSERT_TRUE(server.start().ok());
  ASSERT_TRUE(world.settle(community::kServiceName));
  community::CommunityClient client(world.a->library(), "alice-the-member");
  std::size_t answered = 0;
  const auto rpc = [&] {
    proto::Request request;
    request.op = proto::Opcode::ps_get_online_member_list;
    request.requester = "alice-the-member";
    client.call(world.b->id(), std::move(request),
                [&](Result<proto::Response> response) {
                  ASSERT_TRUE(response.ok());
                  ASSERT_EQ(response->names.size(), 1u);
                  ++answered;
                });
    world.simulator.run_for(sim::seconds(2));
  };
  for (int i = 0; i < 20; ++i) rpc();  // warm
  constexpr std::size_t kRpcs = 100;
  const std::size_t made = allocations_during([&] {
    for (std::size_t i = 0; i < kRpcs; ++i) rpc();
  });
  EXPECT_EQ(answered, 20 + kRpcs);
  EXPECT_LE(made, kRpcs * kBudgetPerRpc)
      << "per RPC: " << static_cast<double>(made) / kRpcs;
}

}  // namespace
}  // namespace ph
