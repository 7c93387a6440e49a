// Workload `loopback`: PeerHood sessions over real UNIX-domain sockets.
//
// 8 daemons on one SocketTransport in this process, over the host's
// loopback (no real link), at time scale 1. Four of them host an echo
// service; after discovery one tester opens 4 sessions to those hosts, and
// each session keeps one message in flight in a closed loop: 64-byte
// messages for the first 70% of the window, then 64 KiB messages. Nothing
// paces the loop, so it measures the per-message cost of transport and
// session (64 B) and their per-byte cost (64 KiB).
//
// Every wait has a wall-clock deadline: a session that stops answering
// counts its in-flight echo as failed and the run fails loudly instead of
// hanging.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "peerhood/stack.hpp"
#include "sim/rng.hpp"
#include "transport/socket_transport.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ph;

constexpr int kDaemons = 8;
constexpr int kSessions = 4;
constexpr std::size_t kSmall = 64;
constexpr std::size_t kLarge = 64 * 1024;
constexpr double kStallS = 2.0;       ///< no echo for this long = failure
constexpr double kSubWindowS = 0.25;  ///< rate/latency medians over these
constexpr net::Port kRawPort = 900;   ///< raw Channel echo (traced run)

net::TechProfile quick_bt() {
  net::TechProfile profile = net::bluetooth_2_0();
  profile.inquiry_duration = sim::milliseconds(200);
  profile.inquiry_detect_prob = 1.0;
  return profile;
}

/// Drives the transport until `done()` or the wall deadline; false on
/// timeout.
template <typename Pred>
bool pump_until(transport::Scheduler& scheduler, Pred done, double limit_s) {
  const auto start = Clock::now();
  while (!done()) {
    if (seconds_since(start) > limit_s) return false;
    scheduler.run_until(scheduler.now() + sim::milliseconds(1));
  }
  return true;
}

/// RTT samples and completion counts of one phase, in sub-windows.
struct Phase {
  std::vector<double> rtt_us;  ///< current sub-window
  std::vector<double> rate, mean, p50, p99;
  std::uint64_t echoes = 0;
  std::uint64_t window_echoes = 0;
  Clock::time_point window_start = Clock::now();

  /// Closes the current sub-window; returns its echo rate (0 if empty).
  double close_window() {
    const double wall = seconds_since(window_start);
    double r = 0.0;
    if (window_echoes > 0 && wall > 0) {
      r = static_cast<double>(window_echoes) / wall;
      rate.push_back(r);
      double sum = 0.0;
      for (double us : rtt_us) sum += us;
      mean.push_back(sum / static_cast<double>(rtt_us.size()));
      p50.push_back(quantile(rtt_us, 0.50));
      p99.push_back(quantile(rtt_us, 0.99));
    }
    rtt_us.clear();
    window_echoes = 0;
    window_start = Clock::now();
    return r;
  }
};

/// Closed echo loops, one message in flight per connection (session or
/// raw channel). A reply must equal its request byte for byte; the
/// sequence number in the first 8 bytes makes a reordered reply differ.
class Echoes {
 public:
  Echoes(RunResult& result, SpanJournal& journal)
      : result_(result), journal_(journal) {}
  /// The connections outlive this object: detach the handlers that point
  /// into it.
  ~Echoes() {
    for (Loop& loop : loops_) {
      if (loop.unbind) loop.unbind();
    }
  }
  Echoes(const Echoes&) = delete;
  Echoes& operator=(const Echoes&) = delete;

  /// Attaches loop `i` to `connection` (peerhood::Connection or
  /// transport::Channel), replacing its previous connection.
  template <typename Connection>
  void bind(std::size_t i, Connection connection) {
    if (loops_.size() <= i) loops_.resize(i + 1);
    Loop& loop = loops_[i];
    if (loop.unbind) loop.unbind();
    loop.send = [connection](BytesView bytes) mutable {
      connection.send(bytes);
    };
    auto attach = [connection](std::function<void(BytesView)> handler) mutable {
      if constexpr (std::is_same_v<Connection, transport::Channel>) {
        connection.on_receive(std::move(handler));
      } else {
        connection.on_message(std::move(handler));
      }
    };
    attach([this, i](BytesView reply) { on_reply(i, reply); });
    loop.unbind = [attach]() mutable { attach([](BytesView) {}); };
  }

  /// Fills every loop's payload with `bytes` seeded bytes.
  void size_payloads(std::size_t bytes, sim::Rng& rng) {
    for (Loop& loop : loops_) {
      loop.payload.resize(bytes);
      for (std::size_t b = sizeof(std::uint64_t); b < bytes; ++b) {
        loop.payload[b] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
    }
  }

  /// Runs loops [0, count) for `seconds` of wall time into `phase`. With
  /// `alternate_trace`, sub-windows alternate between untraced and traced
  /// (journal on) and their rates land in the two vectors. Returns false
  /// when an echo stalled past kStallS; its loop's echo counts as failed.
  bool run(std::size_t count, double seconds, Phase& phase,
           bool alternate_trace, std::vector<double>* traced_rate = nullptr,
           std::vector<double>* untraced_rate = nullptr) {
    phase_ = &phase;
    std::size_t window = 0;
    journal_.set_enabled(false);
    const auto begin = Clock::now();
    phase.window_start = begin;
    for (std::size_t i = 0; i < count; ++i) fire(i);
    auto last_progress = Clock::now();
    std::uint64_t seen = phase.echoes;
    bool ok = true;
    while (seconds_since(begin) < seconds) {
      scheduler_->run_until(scheduler_->now() + sim::milliseconds(1));
      if (phase.echoes != seen) {
        seen = phase.echoes;
        last_progress = Clock::now();
      } else if (seconds_since(last_progress) > kStallS) {
        ok = false;
        break;
      }
      if (seconds_since(phase.window_start) >= kSubWindowS) {
        next_cpu();
        const double rate = phase.close_window();
        if (alternate_trace) {
          if (rate > 0) {
            (traced_block(window) ? traced_rate : untraced_rate)
                ->push_back(rate);
          }
          journal_.set_enabled(traced_block(++window));
        }
      }
    }
    journal_.set_enabled(false);
    stopping_ = true;  // replies still land, no new requests go out
    ok = ok && pump_until(*scheduler_, [&] { return in_flight(count) == 0; },
                          kStallS);
    stopping_ = false;
    if (!ok) {
      result_.failed += in_flight(count);
      result_.check(false, "loopback: an echo stalled for 2 s");
    }
    return ok;
  }

  void set_scheduler(transport::Scheduler& scheduler) {
    scheduler_ = &scheduler;
  }
  std::uint64_t bad() const {
    std::uint64_t n = 0;
    for (const Loop& loop : loops_) n += loop.bad;
    return n;
  }

 private:
  struct Loop {
    std::function<void(BytesView)> send;
    std::function<void()> unbind;
    Bytes payload;
    std::uint64_t seq = 0;
    std::uint64_t sent_ns = 0;
    bool waiting = false;
    std::uint64_t bad = 0;
    std::int64_t span = -1;
  };

  std::size_t in_flight(std::size_t count) const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < count; ++i) n += loops_[i].waiting ? 1 : 0;
    return n;
  }

  void fire(std::size_t i) {
    Loop& loop = loops_[i];
    std::memcpy(loop.payload.data(), &loop.seq, sizeof loop.seq);
    ++result_.attempted;
    loop.span = journal_.open("peerhood", "echo", scheduler_->now());
    loop.sent_ns = wall_ns();
    loop.waiting = true;
    loop.send(loop.payload);
  }

  void on_reply(std::size_t i, BytesView reply) {
    const std::uint64_t now_ns = wall_ns();
    Loop& loop = loops_[i];
    if (!loop.waiting || reply.size() != loop.payload.size() ||
        std::memcmp(reply.data(), loop.payload.data(), reply.size()) != 0) {
      ++loop.bad;
      return;
    }
    loop.waiting = false;
    journal_.close(loop.span, scheduler_->now());
    phase_->rtt_us.push_back(static_cast<double>(now_ns - loop.sent_ns) / 1e3);
    ++phase_->echoes;
    ++phase_->window_echoes;
    ++loop.seq;
    if (!stopping_) fire(i);
  }

  RunResult& result_;
  SpanJournal& journal_;
  transport::Scheduler* scheduler_ = nullptr;
  std::vector<Loop> loops_;
  Phase* phase_ = nullptr;
  bool stopping_ = false;
};

/// Outcome of an asynchronous connect.
template <typename Handle>
struct Opened {
  bool done = false;
  Handle value;  ///< invalid when the connect failed

  void set(Result<Handle> result) {
    done = true;
    if (result.ok()) value = *result;
  }
};

class Loopback {
 public:
  Loopback(std::uint64_t seed, const std::string& socket_dir)
      : socket_dir_(socket_dir) {
    transport::SocketTransportConfig config;
    config.time_scale = 1.0;
    config.seed = seed;
    config.socket_dir = socket_dir;
    transport_ = std::make_unique<transport::SocketTransport>(config);
    peerhood::DaemonConfig daemon;
    daemon.inquiry_interval = sim::seconds(1);
    daemon.ping_interval = sim::seconds(2);
    daemon.reply_timeout = sim::milliseconds(250);
    for (int i = 0; i < kDaemons; ++i) {
      stacks_.push_back(std::make_unique<peerhood::Stack>(
          peerhood::StackConfig{}
              .with_name("dev" + std::to_string(i))
              .with_radios({quick_bt()})
              .with_daemon(daemon)
              .with_transport(*transport_)));
    }
    for (int i = 1; i <= kSessions; ++i) {
      const bool registered = stacks_[i]->library().register_service(
          "echo", {}, [this](peerhood::Connection connection) {
            hosted_.push_back(connection);
            peerhood::Connection conn = connection;
            conn.on_message([conn](BytesView request) mutable {
              conn.send(request);
            });
          }).ok();
      if (!registered) error_ = "echo service registration failed";
    }
  }

  ~Loopback() {
    for (auto& session : sessions_) session.close();
    for (auto& channel : raw_) channel.close();
    // Connections go before the stacks whose daemons they reference.
    sessions_.clear();
    hosted_.clear();
    raw_.clear();
    stacks_.clear();
    transport_.reset();
    // The transport removes only directories it created itself.
    if (!socket_dir_.empty()) ::rmdir(socket_dir_.c_str());
  }

  transport::SocketTransport& transport() { return *transport_; }
  transport::Scheduler& scheduler() { return transport_->scheduler(); }
  std::vector<peerhood::Connection>& sessions() { return sessions_; }
  const std::string& error() const { return error_; }

  /// Discovery plus one session per echo host; false (with error()) when a
  /// deadline passes.
  bool ready() {
    if (!error_.empty()) return false;
    peerhood::Stack& tester = *stacks_[0];
    if (!pump_until(scheduler(), [&] {
          return tester.library().find_service("echo").size() == kSessions;
        }, 10.0)) {
      error_ = "discovery: not every echo host advertised within 10 s";
      return false;
    }
    peerhood::ConnectOptions options;
    options.seamless = false;
    for (const auto& [device, service] :
         tester.library().find_service("echo")) {
      // Shared with the callback, which may still fire after a timeout.
      auto opened = std::make_shared<Opened<peerhood::Connection>>();
      tester.library().connect(device.id, "echo", options,
                               [opened](Result<peerhood::Connection> result) {
                                 opened->set(std::move(result));
                               });
      if (!pump_until(scheduler(), [&] { return opened->done; }, 5.0) ||
          !opened->value.valid()) {
        error_ = "session open to an echo host failed";
        return false;
      }
      sessions_.push_back(opened->value);
    }
    return true;
  }

  /// A raw transport Channel from the tester to echo host 1 (no session
  /// layer), echoing on kRawPort.
  bool open_raw_channel() {
    transport::Endpoint* host =
        transport_->endpoint(stacks_[1]->id(), net::Technology::bluetooth);
    transport::Endpoint* tester =
        transport_->endpoint(stacks_[0]->id(), net::Technology::bluetooth);
    if (host == nullptr || tester == nullptr) return false;
    host->listen(kRawPort, [this](transport::Channel channel) {
      raw_.push_back(channel);
      transport::Channel echo = channel;
      echo.on_receive(
          [echo](BytesView request) mutable { echo.send(request); });
    });
    auto opened = std::make_shared<Opened<transport::Channel>>();
    tester->connect(stacks_[1]->id(), kRawPort,
                    [opened](Result<transport::Channel> result) {
                      opened->set(std::move(result));
                    });
    if (!pump_until(scheduler(), [&] { return opened->done; }, 5.0) ||
        !opened->value.valid()) {
      return false;
    }
    raw_.push_back(opened->value);
    return true;
  }
  transport::Channel& raw_client() { return raw_.back(); }

 private:
  std::string socket_dir_;
  std::unique_ptr<transport::SocketTransport> transport_;
  std::vector<std::unique_ptr<peerhood::Stack>> stacks_;
  std::vector<peerhood::Connection> hosted_;
  std::vector<peerhood::Connection> sessions_;
  std::vector<transport::Channel> raw_;
  std::string error_;
};

/// Runs the echo phases on a ready world and fills `result` with its
/// metrics (per-layer ones too when traced).
void measure(Loopback& world, const Options& options, RunResult& result) {
  obs::Registry& registry = world.transport().registry();

  // Seeded payloads; replies are checked byte for byte and in order.
  sim::Rng rng(options.seed);
  SpanJournal journal;
  if (options.trace) journal.enable(1 << 16);
  Echoes echoes(result, journal);
  echoes.set_scheduler(world.scheduler());
  for (std::size_t i = 0; i < kSessions; ++i) {
    echoes.bind(i, world.sessions()[i]);
  }

  const double small_s = options.seconds * 0.7;
  const double large_s = options.seconds * 0.3;
  const obs::Snapshot before = registry.snapshot();
  obs::Histogram& lag = registry.histogram("transport.socket.loop.lag_us");
  const std::vector<std::uint64_t> lag_before = lag.bucket_counts();

  // --- 64 B phase --------------------------------------------------------
  Phase small;
  echoes.size_payloads(kSmall, rng);
  std::vector<double> traced_rate, untraced_rate;
  const std::uint64_t allocs_before = allocations();
  const bool small_ok = echoes.run(kSessions, small_s, small, options.trace,
                                   &traced_rate, &untraced_rate);
  const double allocs_small =
      static_cast<double>(allocations() - allocs_before);

  // --- 64 KiB phase ------------------------------------------------------
  Phase large;
  if (small_ok) {
    echoes.size_payloads(kLarge, rng);
    echoes.run(kSessions, large_s, large, false);
  }
  result.check(echoes.bad() == 0,
               "loopback: an echo reply differed from its request or arrived "
               "out of order");

  const double goodput_mb_s =
      large.rate.empty() ? 0.0 : upper_quartile(large.rate) * kLarge / 1e6;
  result.values["peak_rss_mb"] = peak_rss_mb();
  result.values["ops_per_s"] = upper_quartile(small.rate);
  result.values["op_mean_ms"] = lower_quartile(small.mean) / 1e3;
  result.values["op_p99_ms"] = lower_quartile(small.p99) / 1e3;
  result.headline("rtt_p50_us", lower_quartile(small.p50), "us");
  result.headline("rtt_p99_us", lower_quartile(small.p99), "us");
  result.headline("goodput_mb_s", goodput_mb_s, "MB/s");
  result.headline("echoes_64B", static_cast<double>(small.echoes), "count");
  result.headline("echoes_64KiB", static_cast<double>(large.echoes), "count");
  if (!options.trace) return;

  // --- per-layer (traced run) ---------------------------------------------
  // Session vs raw Channel, one message in flight each, same transport.
  const double compare_s = std::max(0.5, options.seconds * 0.1);
  Phase one_session, raw;
  echoes.size_payloads(kSmall, rng);
  echoes.run(1, compare_s, one_session, false);
  double chan_rtt_us = 0.0;
  if (world.open_raw_channel()) {
    echoes.bind(0, world.raw_client());
    echoes.run(1, compare_s, raw, false);
    chan_rtt_us = lower_quartile(raw.p50);
  } else {
    result.check(false, "loopback: raw channel to an echo host did not open");
  }
  const double session_rtt_us = lower_quartile(one_session.p50);

  const obs::Snapshot after = registry.snapshot();
  auto delta = [&](const std::string& name) {
    return static_cast<double>(after.counter(name) - before.counter(name));
  };
  auto& v = result.values;
  v["peerhood.session_overhead_us"] = session_rtt_us - chan_rtt_us;
  v["peerhood.sessions_opened"] = static_cast<double>(world.sessions().size());
  v["peerhood.inquiries"] = static_cast<double>(
      sum_counters(after, "peerhood.daemon.", "inquiries_started") -
      sum_counters(before, "peerhood.daemon.", "inquiries_started"));
  v["peerhood.pings"] = static_cast<double>(
      sum_counters(after, "peerhood.daemon.", "pings_sent") -
      sum_counters(before, "peerhood.daemon.", "pings_sent"));
  v["transport.datagrams"] = delta("transport.datagrams_sent");
  v["transport.channels"] =
      delta("transport.channels_opened") + delta("transport.channels_accepted");
  v["transport.bytes"] =
      delta("transport.datagram_bytes") + delta("transport.channel_bytes");
  v["transport.partial_writes"] = delta("transport.socket.partial_writes");
  v["transport.backpressure"] = delta("transport.socket.backpressure");
  v["transport.loop_lag_p95_us"] =
      hist_delta_quantile(lag.bounds(), lag_before, lag.bucket_counts(), 0.95);
  v["transport.chan_rtt_p50_us"] = chan_rtt_us;
  v["transport.allocs_per_msg"] =
      small.echoes > 0
          ? allocs_small / (2.0 * static_cast<double>(small.echoes))
          : 0.0;
  v["transport.goodput_mb_s"] = goodput_mb_s;
  v["obs.metrics"] = static_cast<double>(registry.counters().size() +
                                         registry.gauges().size() +
                                         registry.histograms().size());
  v["trace.overhead_pct"] = overhead_pct(traced_rate, untraced_rate);

  // Ledger: every 64 B echo costs one raw channel round trip plus the
  // session layer's overhead; the four loops share one thread.
  const double n = static_cast<double>(small.echoes);
  result.ledger_wall_s = small_s;
  result.ledger = {
      {"transport: channel round trip", n, chan_rtt_us * 1e3},
      {"peerhood: session overhead", n,
       std::max(0.0, session_rtt_us - chan_rtt_us) * 1e3},
  };
  result.write_spans(journal, options);
}

}  // namespace

RunResult run_loopback(const Options& options) {
  RunResult result;
  const std::string& base = options.socket_dir;
  if (!base.empty()) ::mkdir(base.c_str(), 0700);  // EEXIST is fine

  // Set-up (see setup_count): transport, daemons, discovery, sessions.
  std::vector<double> setup_s;
  auto build = [&]() -> std::unique_ptr<Loopback> {
    const std::string dir =
        base.empty() ? std::string()
                     : base + "/s" + std::to_string(::getpid()) + "-" +
                           std::to_string(setup_s.size());
    next_cpu();
    const auto start = Clock::now();
    auto world = std::make_unique<Loopback>(options.seed, dir);
    const bool ok = world->ready();
    setup_s.push_back(seconds_since(start));
    result.check(ok, "loopback: " + world->error());
    return ok ? std::move(world) : nullptr;
  };
  const int setups = setup_count(options, 9);
  const int before = (setups + 1) / 2;
  std::unique_ptr<Loopback> world;
  for (int i = 0; i < before; ++i) {
    world.reset();
    world = build();
    if (!world) return result;
  }
  measure(*world, options, result);
  world.reset();
  for (int i = before; i < setups; ++i) {
    if (!build()) return result;
  }
  result.values["setup_s"] = median(setup_s);
  return result;
}

}  // namespace perfbench
