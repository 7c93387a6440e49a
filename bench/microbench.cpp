// Infrastructure microbenchmarks (google-benchmark, wall-clock): the
// simulation kernel's event throughput, the simulated transport seam, the
// socket channel and session echo, the wire codecs and the telemetry
// scrape. Not tied to a thesis artifact — these document the harness' own
// capacity, i.e. how large an overlay simulation the repository can drive.
// The transport seam, socket and codec benchmarks also report
// `allocs_per_op`, heap allocations per iteration counted by the
// tests/testutil operator-new interposer linked into this binary.
//
// Set PH_METRICS_JSON=/path/out.json to also dump a
// `sim.kernel.*` snapshot — one deterministic run of the schedule/run and
// cancel workloads with event counts and wall-clock throughput — at exit.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "net/medium.hpp"
#include "obs/bench_report.hpp"
#include "obs/export.hpp"
#include "obs/sampler.hpp"
#include "peerhood/stack.hpp"
#include "proto/daemon.hpp"
#include "proto/messages.hpp"
#include "sim/mobility.hpp"
#include "sim/simulator.hpp"
#include "tests/testutil/alloc_counter.hpp"
#include "transport/sim_transport.hpp"
#include "transport/socket_transport.hpp"

using namespace ph;

namespace {

/// Sets the `allocs_per_op` counter: allocations since `before`, averaged
/// over the iterations. Call right after the timing loop.
void report_allocs(benchmark::State& state, std::size_t before) {
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(testutil::allocations() - before),
      benchmark::Counter::kAvgIterations);
}

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    for (int i = 0; i < events; ++i) {
      simulator.schedule(sim::milliseconds(i % 1000), [] {});
    }
    simulator.run_all();
    benchmark::DoNotOptimize(simulator.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_SimulatorCascade(benchmark::State& state) {
  // Each event schedules the next — the latency-chain pattern every
  // network round trip uses.
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    int remaining = depth;
    std::function<void()> step = [&] {
      if (--remaining > 0) simulator.schedule(sim::microseconds(10), step);
    };
    simulator.schedule(0, step);
    simulator.run_all();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_SimulatorCascade)->Arg(1'000)->Arg(10'000);

// --- event queue -----------------------------------------------------------
// Steady-state schedule/fire churn on the raw timer wheel at a fixed
// pending-set size: pop the earliest event, schedule a replacement. This
// isolates the queue data structure from the rest of the kernel: O(1)
// bucket filing plus amortized slot drains.

void BM_EventQueue(benchmark::State& state) {
  const std::size_t pending = static_cast<std::size_t>(state.range(0));
  sim::FlatIdSet live;
  sim::TimerWheelQueue queue(live);
  std::mt19937_64 rng(12345);
  const sim::Duration horizon = 10'000'000;  // 10 s spread
  sim::Time now = 0;
  sim::EventId next_id = 1;
  for (std::size_t i = 0; i < pending; ++i) {
    const sim::EventId id = next_id++;
    live.insert(id);
    queue.push(now + rng() % horizon, id, sim::EventFn([] {}));
  }
  sim::QueueEntry out;
  for (auto _ : state) {
    queue.pop_next(~sim::Time{0}, out);
    live.erase(out.id);
    now = out.when;
    const sim::EventId id = next_id++;
    live.insert(id);
    queue.push(now + rng() % horizon, id, sim::EventFn([] {}));
    benchmark::DoNotOptimize(out.id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueue)->Arg(1'000)->Arg(100'000)->Arg(1'000'000);

// Steady-state cancel churn: schedule far-future events and cancel them,
// the monitoring-timeout pattern (arm a watchdog, cancel it when the reply
// arrives). Exercises FlatIdSet membership and lazy-compaction.
void BM_EventQueueCancel(benchmark::State& state) {
  sim::FlatIdSet live;
  sim::TimerWheelQueue queue(live);
  sim::EventId next_id = 1;
  for (auto _ : state) {
    const sim::EventId id = next_id++;
    live.insert(id);
    queue.push(sim::Time{next_id} + 1'000'000, id, sim::EventFn([] {}));
    live.erase(id);
    queue.note_cancelled();
    benchmark::DoNotOptimize(queue.stored());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCancel);

// End-to-end dispatch through the Simulator: a thousand self-rescheduling
// chains (the periodic-work shape chaos_soak runs at scale), measured as
// executed events per wall second.

void arm_bench_chain(sim::Simulator& simulator, sim::Duration period) {
  simulator.schedule(period, [&simulator, period] {
    arm_bench_chain(simulator, period);
  });
}

void BM_Dispatch(benchmark::State& state) {
  sim::Simulator simulator;
  std::mt19937_64 rng(777);
  for (int i = 0; i < 1'000; ++i) {
    arm_bench_chain(simulator, 500 + rng() % 50'000);
  }
  simulator.run_for(sim::seconds(1.0));  // warm slot vectors
  std::uint64_t executed = simulator.events_executed();
  for (auto _ : state) {
    simulator.run_for(sim::milliseconds(100));
    benchmark::DoNotOptimize(simulator.now());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(simulator.events_executed() - executed));
}
BENCHMARK(BM_Dispatch);

void BM_SimulatorCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    std::vector<sim::EventId> ids;
    ids.reserve(10'000);
    for (int i = 0; i < 10'000; ++i) {
      ids.push_back(simulator.schedule(sim::seconds(1), [] {}));
    }
    for (sim::EventId id : ids) simulator.cancel(id);
    benchmark::DoNotOptimize(simulator.queue_size());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorCancel);

// --- radio-world proximity queries -----------------------------------------
// A random-waypoint crowd at constant density (the overlay-scale regime):
// arg = N devices. Every iteration advances virtual time so the
// position cache and grid are invalidated and rebuilt exactly as they are
// in a live discovery round — this measures the steady-state query cost,
// not a warm-cache fiction.

struct RadioWorld {
  sim::Simulator simulator;
  net::Medium medium{simulator, sim::Rng(99)};
  net::TechProfile bt = net::bluetooth_2_0();
  int devices = 0;

  explicit RadioWorld(int n) : devices(n) {
    sim::Rng walkers(7);
    // Field area ∝ N: the 40-devices-on-60×60-m crowd density.
    const double field = 60.0 * std::sqrt(static_cast<double>(n) / 40.0);
    for (int i = 0; i < n; ++i) {
      sim::RandomWaypoint::Config walk;
      walk.area_min = {0, 0};
      walk.area_max = {field, field};
      const net::NodeId id = medium.add_node(
          "n" + std::to_string(i),
          std::make_unique<sim::RandomWaypoint>(walk, walkers.fork()));
      medium.add_adapter(id, bt);
    }
  }
};

void BM_NodesInRange(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  RadioWorld world(n);
  net::NodeId probe = 1;
  for (auto _ : state) {
    world.simulator.run_for(sim::milliseconds(100));  // new timestamp
    auto peers = world.medium.nodes_in_range(probe, world.bt);
    benchmark::DoNotOptimize(peers);
    probe = probe % static_cast<net::NodeId>(n) + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodesInRange)->Arg(32)->Arg(256)->Arg(1024);

void BM_Signal(benchmark::State& state) {
  // 32 distinct pair samples per timestamp — the shape of a monitoring
  // round (ping sweep), where the position cache collapses repeated
  // mobility sampling (the per-pair signal memo cannot help: every pair
  // is fresh, so this measures the memoization layer's overhead too).
  const int n = static_cast<int>(state.range(0));
  RadioWorld world(n);
  net::NodeId a = 1;
  for (auto _ : state) {
    world.simulator.run_for(sim::milliseconds(100));
    double sum = 0.0;
    for (int i = 0; i < 32; ++i) {
      const net::NodeId b =
          static_cast<net::NodeId>((a + i) % static_cast<net::NodeId>(n)) + 1;
      sum += world.medium.signal(a, b, world.bt);
    }
    benchmark::DoNotOptimize(sum);
    a = a % static_cast<net::NodeId>(n) + 1;
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_Signal)->Arg(32)->Arg(256)->Arg(1024);

// --- simulated transport seam --------------------------------------------
// Two co-located devices on a SimTransport, driven only through the
// transport::Endpoint / Channel interface the middleware uses. One
// iteration = one 64-byte message sent and delivered to the peer's
// handler (the kernel runs until the delivery event has fired), so the
// time covers the seam, the Medium's frame path and one event dispatch.

struct SimPair {
  sim::Simulator simulator;
  net::Medium medium{simulator, sim::Rng(5)};
  transport::SimTransport transport{medium};
  transport::DeviceId b = 0;
  transport::Endpoint* ea = nullptr;
  transport::Endpoint* eb = nullptr;

  SimPair() {
    net::TechProfile bt = net::bluetooth_2_0();
    bt.frame_loss = 0.0;  // every iteration delivers exactly once
    const transport::DeviceId a = transport.add_device("a", nullptr);
    b = transport.add_device("b", nullptr);
    ea = &transport.add_endpoint(a, bt);
    eb = &transport.add_endpoint(b, bt);
  }
};

void BM_SimDatagram(benchmark::State& state) {
  SimPair pair;
  std::int64_t delivered = 0;
  pair.eb->bind(7, [&](transport::DeviceId, BytesView) { ++delivered; });
  const Bytes payload(64, 0x5A);
  const std::size_t allocs = testutil::allocations();
  for (auto _ : state) {
    pair.ea->send_datagram(pair.b, 7, payload);
    pair.simulator.run_all();
  }
  report_allocs(state, allocs);
  if (delivered != state.iterations()) state.SkipWithError("datagram lost");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimDatagram);

void BM_SimChannelSend(benchmark::State& state) {
  SimPair pair;
  std::int64_t delivered = 0;
  transport::Channel server;
  pair.eb->listen(7, [&](transport::Channel channel) {
    server = channel;
    server.on_receive([&](BytesView) { ++delivered; });
  });
  transport::Channel client;
  pair.ea->connect(pair.b, 7, [&](Result<transport::Channel> result) {
    if (result) client = *result;
  });
  pair.simulator.run_all();
  if (!client.open()) {
    state.SkipWithError("channel did not open");
    return;
  }
  const Bytes payload(64, 0x5A);
  const std::size_t allocs = testutil::allocations();
  for (auto _ : state) {
    client.send(payload);
    pair.simulator.run_all();
  }
  report_allocs(state, allocs);
  if (delivered != state.iterations()) state.SkipWithError("message lost");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimChannelSend);

// --- socket transport: channel and session echo ---------------------------
// A closed echo loop over real UNIX-domain sockets in this process, shaped
// like perfbench's `loopback`: one 64-byte message in flight, the peer's
// handler echoes it and the reply handler sends the next. One iteration =
// one echo: a write and an epoll wake on each side. The channel benchmark
// drives transport::Channel directly; the session benchmark adds PeerHood
// session framing (sequence numbers, acks, retransmit buffer), so their
// difference is the session layer's cost.

/// Pumps `scheduler` until `done()` or a minute of virtual time. Each step
/// is one epoll wait that returns as soon as a socket is ready, so the
/// time measured is the echo's, not a polling period's.
template <typename Done>
bool pump_socket(transport::Scheduler& scheduler, Done done) {
  const sim::Time deadline = scheduler.now() + sim::minutes(1);
  while (!done() && scheduler.now() < deadline) {
    scheduler.run_until(scheduler.now() + sim::microseconds(1));
  }
  return done();
}

/// Runs the echo loop over `connection`, whose receive handler `attach`
/// installs. Also reports `stream_writes_per_op`, the stream `::send`
/// calls both sides made per echo.
template <typename Connection, typename Attach>
void run_echoes(benchmark::State& state, transport::SocketTransport& transport,
                Connection& connection, Attach attach) {
  transport::Scheduler& scheduler = transport.scheduler();
  const obs::Counter& writes =
      transport.registry().counter("transport.socket.stream_writes");
  const Bytes payload(64, 0x5A);
  std::size_t echoes = 0;
  bool more = true;
  attach([&](BytesView) {
    ++echoes;
    if (more) connection.send(payload);
  });
  connection.send(payload);
  // Warm buffers before counting.
  if (!pump_socket(scheduler, [&] { return echoes >= 64; })) {
    state.SkipWithError("warm-up echo stalled");
    more = false;
  }
  const std::uint64_t writes_before = writes.value();
  const std::size_t allocs = testutil::allocations();
  for (auto _ : state) {
    if (!more) break;
    const std::size_t before = echoes;
    if (!pump_socket(scheduler, [&] { return echoes > before; })) {
      state.SkipWithError("echo stalled");
      break;
    }
  }
  report_allocs(state, allocs);
  state.counters["stream_writes_per_op"] = benchmark::Counter(
      static_cast<double>(writes.value() - writes_before),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations());
  // Land the message still in flight, then detach from this frame.
  const std::size_t last = echoes;
  more = false;
  (void)pump_socket(scheduler, [&] { return echoes > last; });
  attach([](BytesView) {});
}

void BM_SocketChannelEcho(benchmark::State& state) {
  transport::SocketTransport transport;
  const transport::DeviceId a = transport.add_device("a", nullptr);
  const transport::DeviceId b = transport.add_device("b", nullptr);
  transport::Endpoint& ea = transport.add_endpoint(a, net::bluetooth_2_0());
  transport::Endpoint& eb = transport.add_endpoint(b, net::bluetooth_2_0());
  transport::Channel server;
  eb.listen(7, [&](transport::Channel channel) {
    server = channel;
    server.on_receive([&server](BytesView request) { server.send(request); });
  });
  transport::Channel client;
  ea.connect(b, 7, [&](Result<transport::Channel> result) {
    if (result) client = *result;
  });
  if (!pump_socket(transport.scheduler(), [&] { return client.open(); })) {
    state.SkipWithError("channel did not open");
    return;
  }
  run_echoes(state, transport, client, [&](auto handler) {
    client.on_receive(std::move(handler));
  });
  client.close();
  server.close();
}
BENCHMARK(BM_SocketChannelEcho);

void BM_SocketSessionEcho(benchmark::State& state) {
  transport::SocketTransportConfig config;
  config.time_scale = 20.0;  // discovery rounds in wall milliseconds
  transport::SocketTransport transport(config);
  transport::Scheduler& scheduler = transport.scheduler();
  net::TechProfile bt = net::bluetooth_2_0();
  bt.inquiry_duration = sim::milliseconds(200);
  bt.inquiry_detect_prob = 1.0;
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
  const bool registered =
      b->library().register_service("echo", {}, serve_echo).ok();
  if (!registered || !pump_socket(scheduler, [&] {
        return !a->library().find_service("echo").empty();
      })) {
    state.SkipWithError("echo service not discovered");
    return;
  }
  // Only the echo runs from here: no discovery rounds or pings.
  a->daemon().stop();
  b->daemon().stop();
  scheduler.run_until(scheduler.now() + sim::seconds(1));
  peerhood::ConnectOptions options;
  options.seamless = false;  // no signal monitor timers
  peerhood::Connection connection;
  a->library().connect(b->id(), "echo", options,
                       [&](Result<peerhood::Connection> result) {
                         if (result) connection = *result;
                       });
  if (!pump_socket(scheduler, [&] { return connection.valid(); })) {
    state.SkipWithError("session did not open");
    return;
  }
  run_echoes(state, transport, connection, [&](auto handler) {
    connection.on_message(std::move(handler));
  });
  connection.close();
  hosted.clear();
}
BENCHMARK(BM_SocketSessionEcho);

proto::Response heavy_response() {
  proto::Response response;
  response.op = proto::Opcode::ps_get_profile;
  response.profile.member_id = "member";
  response.profile.display_name = "A Display Name";
  response.profile.about = "about text of realistic length for a profile";
  for (int i = 0; i < 10; ++i) {
    response.profile.interests.push_back("interest" + std::to_string(i));
    response.profile.trusted_friends.push_back("friend" + std::to_string(i));
    response.profile.comments.push_back(
        {"author" + std::to_string(i), "a comment of plausible length", 123});
    response.profile.visitors.push_back("visitor" + std::to_string(i));
  }
  return response;
}

void BM_EncodeResponse(benchmark::State& state) {
  const proto::Response response = heavy_response();
  std::size_t bytes = 0;
  const std::size_t allocs = testutil::allocations();
  for (auto _ : state) {
    Bytes encoded = proto::encode(response);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded);
  }
  report_allocs(state, allocs);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_EncodeResponse);

void BM_DecodeResponse(benchmark::State& state) {
  const Bytes encoded = proto::encode(heavy_response());
  const std::size_t allocs = testutil::allocations();
  for (auto _ : state) {
    auto decoded = proto::decode_response(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  report_allocs(state, allocs);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(encoded.size()));
}
BENCHMARK(BM_DecodeResponse);

void BM_DecodeDaemonMessage(benchmark::State& state) {
  proto::DaemonMessage message;
  message.op = proto::DaemonOp::service_reply;
  message.device_name = "device";
  message.services = {{"PeerHoodCommunity", 1000,
                       {{"member", "alice"},
                        {"interests", "a;b;c;d"},
                        {"type", "social"}}}};
  const Bytes encoded = proto::encode(message);
  for (auto _ : state) {
    auto decoded = proto::decode_daemon_message(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(encoded.size()));
}
BENCHMARK(BM_DecodeDaemonMessage);

// One ops-plane scrape (obs::Sampler::sample) of a registry shaped like the
// crowd's: per device 20 counters, 5 gauges and 4 latency histograms under
// `peerhood.daemon.d<id>.` names (the crowd holds ~29 metrics per device).
// Arg = total metrics; 1% of them move between scrapes. Reports ns per
// scrape (the iteration time) and ns per metric (`per_metric`).
void BM_SamplerScrape(benchmark::State& state) {
  constexpr int kPerDevice = 29;
  const int devices = static_cast<int>(state.range(0)) / kPerDevice;
  obs::Registry registry;
  std::vector<obs::Counter*> counters;
  std::vector<obs::Gauge*> gauges;
  std::vector<obs::Histogram*> hists;
  for (int d = 0; d < devices; ++d) {
    const std::string prefix = "peerhood.daemon.d" + std::to_string(d) + ".";
    for (int i = 0; i < 20; ++i) {
      counters.push_back(&registry.counter(prefix + "c" + std::to_string(i)));
    }
    for (int i = 0; i < 5; ++i) {
      gauges.push_back(&registry.gauge(prefix + "g" + std::to_string(i)));
    }
    for (int i = 0; i < 4; ++i) {
      hists.push_back(
          &registry.histogram(prefix + "h" + std::to_string(i) + "_us"));
    }
  }
  const std::size_t metrics = registry.entries().size();
  obs::Sampler sampler(registry, {.interval_us = 1'000'000, .capacity = 16});
  obs::TimePoint now = 1'000'000;
  sampler.sample(now);  // adopt every metric before timing

  // Touch 1% per tick, spread over the kinds in the registry's proportions.
  const std::size_t touched = std::max<std::size_t>(1, metrics / 100);
  std::size_t next = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < touched; ++i, ++next) {
      const std::size_t k = next % kPerDevice;
      const std::size_t d =
          next / kPerDevice % static_cast<std::size_t>(devices);
      if (k < 20) {
        counters[d * 20 + k]->inc();
      } else if (k < 25) {
        gauges[d * 5 + (k - 20)]->set(static_cast<double>(next));
      } else {
        hists[d * 4 + (k - 25)]->observe(static_cast<double>(next % 5'000));
      }
    }
    sampler.sample(now += 1'000'000);
    benchmark::ClobberMemory();  // the scrape's output is its ring writes
  }
  state.counters["metrics"] = static_cast<double>(metrics);
  state.counters["per_metric"] = benchmark::Counter(
      static_cast<double>(metrics),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_SamplerScrape)->Arg(1'000)->Arg(10'000)->Arg(40'000);

// Records one deterministic pass of the kernel workloads into `metrics`.
// The schedule/run workload's wall-clock throughput shows up as
// `events_per_sec`; the cancel workload documents lazy cancellation: O(1)
// erase, stale entries compacted away once they dominate.
void record_kernel_metrics(obs::Registry& metrics) {
  {
    constexpr int kEvents = 100'000;
    const auto wall_start = std::chrono::steady_clock::now();
    sim::Simulator simulator;
    for (int i = 0; i < kEvents; ++i) {
      simulator.schedule(sim::milliseconds(i % 1000), [] {});
    }
    simulator.run_all();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    metrics.counter("sim.kernel.schedule_run_events")
        .inc(simulator.events_executed());
    metrics.gauge("sim.kernel.schedule_run_wall_s").set(wall_s);
    if (wall_s > 0) {
      metrics.gauge("sim.kernel.events_per_sec").set(kEvents / wall_s);
    }
  }
  {
    constexpr int kEvents = 10'000;
    sim::Simulator simulator;
    std::vector<sim::EventId> ids;
    ids.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i) {
      ids.push_back(simulator.schedule(sim::seconds(1), [] {}));
    }
    std::uint64_t cancelled = 0;
    for (std::size_t i = 0; i < ids.size(); i += 2) {
      if (simulator.cancel(ids[i])) ++cancelled;
    }
    metrics.counter("sim.kernel.cancelled_events").inc(cancelled);
    metrics.gauge("sim.kernel.live_after_cancel")
        .set(static_cast<double>(simulator.queue_size()));
    simulator.run_all();
    metrics.counter("sim.kernel.cancel_run_events")
        .inc(simulator.events_executed());
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  obs::Registry metrics;
  record_kernel_metrics(metrics);

  // Kernel-workload report: event counts are exact (headline); wall-clock
  // throughput depends on the machine running the gate (info only).
  obs::BenchReport report;
  report.bench = "microbench";
  report.headline["schedule_run_events"] = static_cast<double>(
      metrics.counter("sim.kernel.schedule_run_events").value());
  report.headline["cancelled_events"] = static_cast<double>(
      metrics.counter("sim.kernel.cancelled_events").value());
  report.headline["live_after_cancel"] =
      metrics.gauge("sim.kernel.live_after_cancel").value();
  report.headline["cancel_run_events"] = static_cast<double>(
      metrics.counter("sim.kernel.cancel_run_events").value());
  report.info["schedule_run_wall_s"] =
      metrics.gauge("sim.kernel.schedule_run_wall_s").value();
  report.info["events_per_sec"] =
      metrics.gauge("sim.kernel.events_per_sec").value();
  obs::dump_bench_report_if_requested(report, &metrics);

  obs::dump_if_requested(metrics);
  return 0;
}
