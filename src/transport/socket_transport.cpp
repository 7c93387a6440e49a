#include "transport/socket_transport.hpp"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/ops_server.hpp"
#include "obs/prof.hpp"
#include "obs/sampler.hpp"
#include "obs/slo.hpp"
#include "proto/codec.hpp"
#include "proto/frame.hpp"
#include "util/callback_slot.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace ph::transport {

namespace {

// ---------------------------------------------------------------------------
// Wire helpers
// ---------------------------------------------------------------------------

/// Bytes one length-prefixed stream message of `payload` occupies.
std::size_t stream_message_size(BytesView payload) {
  return 4 + proto::kFrameHeaderSize + payload.size();
}

/// Appends one length-prefixed stream message to `out`: u32 frame length,
/// then the frame, written in place.
void append_stream_message(Bytes& out, proto::FrameKind kind,
                           BytesView payload) {
  std::uint8_t len[4];
  proto::store_le(len, static_cast<std::uint32_t>(proto::kFrameHeaderSize +
                                                  payload.size()));
  out.insert(out.end(), len, len + 4);
  proto::append_frame(out, kind, payload);
}

int make_socket(int type) {
  return ::socket(AF_UNIX, type | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  PH_CHECK_MSG(path.size() < sizeof(addr.sun_path),
               "socket_dir path too long for sockaddr_un");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

std::string endpoint_path(const std::string& dir, DeviceId device,
                          net::Technology tech, const char* plane) {
  return dir + "/d" + std::to_string(device) + ".t" +
         std::to_string(static_cast<int>(tech)) + "." + plane;
}

/// Parses "d<id>.t<tech>.dgram" back into a device id; 0 when `name` is
/// something else (a stream socket, a stray file).
DeviceId parse_dgram_entry(const std::string& name, net::Technology tech) {
  const std::string suffix =
      ".t" + std::to_string(static_cast<int>(tech)) + ".dgram";
  if (name.size() <= 1 + suffix.size() || name[0] != 'd') return net::kInvalidNode;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return net::kInvalidNode;
  }
  const std::string digits = name.substr(1, name.size() - 1 - suffix.size());
  if (digits.empty()) return net::kInvalidNode;
  DeviceId id = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return net::kInvalidNode;
    id = id * 10 + static_cast<DeviceId>(c - '0');
  }
  return id;
}

}  // namespace

// ---------------------------------------------------------------------------
// WallScheduler — virtual microseconds over the wall clock + epoll pump.
// ---------------------------------------------------------------------------

class SocketTransport::WallScheduler final : public Scheduler {
 public:
  WallScheduler(SocketTransport& transport, double time_scale)
      : transport_(transport),
        scale_(time_scale > 0.0 ? time_scale : 1.0),
        start_(std::chrono::steady_clock::now()) {}

  sim::Time now() const override {
    const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    auto t = static_cast<sim::Time>(static_cast<double>(wall) * scale_);
    // Monotonic even under floating-point jitter.
    if (t < last_now_) t = last_now_;
    last_now_ = t;
    return t;
  }

  sim::EventId schedule(sim::Duration delay, sim::EventFn fn) override {
    const sim::EventId id = ++next_id_;
    const sim::Time due = now() + delay;
    // Same tag plumbing as the simulated kernels: a pending TagScope wins,
    // otherwise the timer inherits the tag of the timer being dispatched.
    timers_.emplace(std::make_pair(due, id),
                    Timer{std::move(fn), obs::prof::effective_tag(current_tag_)});
    due_.emplace(id, due);
    return id;
  }

  bool cancel(sim::EventId id) override {
    auto it = due_.find(id);
    if (it == due_.end()) return false;
    timers_.erase(std::make_pair(it->second, id));
    due_.erase(it);
    return true;
  }

  bool pending(sim::EventId id) const override { return due_.contains(id); }

  /// Alternates running due timers with epoll waits whose wall timeout is
  /// the earlier of `until` and the next timer, both mapped back through
  /// the time scale. Socket readiness wakes the wait early, so I/O is
  /// handled as the kernel delivers it, not on timer granularity.
  void run_until(sim::Time until) override {
    for (;;) {
      while (!timers_.empty() && timers_.begin()->first.first <= now()) {
        auto node = timers_.extract(timers_.begin());
        due_.erase(node.key().second);
        Timer timer = std::move(node.mapped());
        // Loop lag: how far past its due point the timer actually fired,
        // reported in WALL microseconds (virtual lag unscaled). A loaded
        // or stalled loop shows up here before anything times out.
        const sim::Time lag_virtual = now() - node.key().first;
        transport_.h_loop_lag_->observe(static_cast<double>(lag_virtual) /
                                        scale_);
        const std::uint64_t t0 = transport_.wall_clock_.now();
        current_tag_ = timer.tag;
        {
          const obs::prof::Scope span(timer.tag);
          timer.fn();
        }
        current_tag_ = 0;
        transport_.h_loop_dispatch_->observe(
            static_cast<double>(transport_.wall_clock_.now() - t0));
      }
      const sim::Time current = now();
      if (current >= until) return;
      sim::Time wake = until;
      if (!timers_.empty()) {
        wake = std::min(wake, timers_.begin()->first.first);
      }
      int timeout_ms = 0;
      if (wake > current) {
        const double wall_us = static_cast<double>(wake - current) / scale_;
        timeout_ms = static_cast<int>(wall_us / 1000.0) + 1;
        timeout_ms = std::clamp(timeout_ms, 1, 1000);
      }
      transport_.pump_epoll(timeout_ms);
    }
  }

 private:
  struct Timer {
    sim::EventFn fn;
    std::uint8_t tag = 0;
  };

  SocketTransport& transport_;
  double scale_;
  std::chrono::steady_clock::time_point start_;
  mutable sim::Time last_now_ = 0;
  sim::EventId next_id_ = 0;
  std::uint8_t current_tag_ = 0;  ///< tag of the timer being dispatched
  std::map<std::pair<sim::Time, sim::EventId>, Timer> timers_;
  std::map<sim::EventId, sim::Time> due_;
};

// ---------------------------------------------------------------------------
// SocketChannelState — one SOCK_STREAM socket, from connect/accept4 to close.
// ---------------------------------------------------------------------------

namespace {

/// A stream goes opening → open → closed. While opening it carries the
/// handshake: the connector sends channel_open and waits for
/// channel_accept or channel_reject; the acceptor waits for channel_open.
/// Handshake and data frames share one reader (handle_io + deliver_frames)
/// and one writer (out_buf_ + flush); only an open stream is a Channel the
/// layers above can see.
///
/// One write per delivery: frames queued while deliver_frames runs (a
/// session reply and its ack, a pong, a handshake reply) go out in one
/// send when the delivery ends. A send made outside a delivery writes at
/// once, so no frame waits for a later loop turn.
class SocketChannelState final
    : public detail::ChannelState,
      public std::enable_shared_from_this<SocketChannelState> {
 public:
  /// Receives the peer's first frame with the stream still opening, or the
  /// reason it closed before one arrived (timeout, EOF, an unreadable
  /// frame, endpoint power-off). Called at most once. Given a frame, it
  /// must either establish() the stream or chan_close() it.
  using OpeningHandler =
      std::function<void(SocketChannelState&, Result<proto::FrameView>)>;

  SocketChannelState(SocketTransport& transport, int fd, net::Technology tech)
      : transport_(transport), fd_(fd), tech_(tech) {
    // Room for one whole read: a wake that finds the buffer drained never
    // grows it, so the steady state of small messages does not allocate.
    in_buf_.reserve(kReadChunk);
  }

  ~SocketChannelState() override {
    if (fd_ >= 0) ::close(fd_);
  }

  bool chan_open() const override { return phase_ == Phase::open; }
  DeviceId chan_remote() const override { return remote_; }
  net::Technology chan_technology() const override { return tech_; }
  void chan_on_receive(std::function<void(BytesView)> handler) override {
    on_receive_ = std::move(handler);
    // Frames may already be buffered (they rode in behind the handshake,
    // or arrived before the handler was installed) — drain them now that
    // someone can receive. Deferred so attaching a handler mid-dispatch
    // never re-enters the delivery loop.
    schedule_drain();
  }
  void chan_on_break(std::function<void()> handler) override {
    on_break_ = std::move(handler);
  }
  double chan_signal() const override { return chan_open() ? 1.0 : 0.0; }

  void chan_send(BytesView payload) override;
  void chan_close() override;

  /// Registers with the epoll loop and starts the opening phase: the first
  /// frame goes to `on_first_frame`, and a stream still opening after
  /// `timeout` (virtual) fails with Errc::timeout. The fd handler keeps the
  /// state alive (shared_ptr capture) until it closes or breaks — like a
  /// simulated link, an open channel outlives dropped user handles.
  void start(sim::Duration timeout, OpeningHandler on_first_frame);

  bool opening() const noexcept { return phase_ == Phase::opening; }
  /// Ends the opening phase in place: the stream becomes an open channel
  /// to `remote`, with whatever followed the handshake still buffered.
  void establish(DeviceId remote);
  /// Wall µs at which the opening phase started (handshake latency).
  std::uint64_t started_wall_us() const noexcept { return started_wall_; }

  /// Queues one frame; outside a delivery, also writes what the socket
  /// takes.
  void send_frame(proto::FrameKind kind, BytesView payload);

  /// The stream is unusable. An opening stream closes and hands `why` to
  /// its opening handler; an open one closes as a counted break and runs
  /// its break handler.
  void fail(Error why);

  /// Queues a transport-internal RTT probe carrying the sender's wall
  /// clock; the peer echoes it back as channel_pong and the receive path
  /// observes (now - echo) into transport.channel_rtt_us. Invisible to
  /// the layers above — probes never reach the receive handler.
  void send_ping(std::uint64_t wall_us);

  /// Bytes queued but not yet written / received but not yet delivered —
  /// the periodic scrape sums these into the per-device queue gauges.
  std::size_t send_queue_bytes() const noexcept {
    return out_buf_.size() - out_pos_;
  }
  std::size_t recv_queue_bytes() const noexcept { return in_buf_.size(); }

 private:
  enum class Phase : std::uint8_t { opening, open, closed };
  /// Bytes one recv asks for.
  static constexpr std::size_t kReadChunk = 16384;

  void handle_io(std::uint32_t events);
  void deliver_frames();
  void schedule_drain();
  void flush();
  /// Enters the closed phase: cancels the opening timer, unregisters and
  /// closes the fd. Handlers are the caller's business.
  void close_fd();

  SocketTransport& transport_;
  int fd_;
  DeviceId remote_ = net::kInvalidNode;
  net::Technology tech_;
  Phase phase_ = Phase::opening;
  bool want_write_ = false;
  bool peer_gone_ = false;     // EOF/hard error seen; break after delivery
  bool drain_pending_ = false; // a schedule(0) drain is already queued
  bool delivering_ = false;    // in deliver_frames: sends queue, flush after
  sim::EventId open_timer_ = 0;
  std::uint64_t started_wall_ = 0;
  Bytes in_buf_;
  Bytes out_buf_;
  std::size_t out_pos_ = 0;
  OpeningHandler on_opening_;
  util::CallbackSlot<void(BytesView)> on_receive_;
  std::function<void()> on_break_;
};

void SocketChannelState::start(sim::Duration timeout,
                               OpeningHandler on_first_frame) {
  on_opening_ = std::move(on_first_frame);
  started_wall_ = transport_.wall_now_us();
  open_timer_ = transport_.scheduler().schedule(
      timeout, [weak = weak_from_this()] {
        if (auto self = weak.lock()) {
          self->fail(Error{Errc::timeout, "channel open timed out"});
        }
      });
  auto self = shared_from_this();
  transport_.watch_fd(fd_, EPOLLIN,
                      [self](std::uint32_t events) { self->handle_io(events); });
}

void SocketChannelState::establish(DeviceId remote) {
  phase_ = Phase::open;
  remote_ = remote;
  transport_.scheduler().cancel(std::exchange(open_timer_, 0));
}

void SocketChannelState::chan_send(BytesView payload) {
  // Silently discarded when closed, like a closed simulated link; after
  // EOF the peer is gone and a write would EPIPE-break the channel before
  // its buffered tail frames were delivered.
  if (phase_ != Phase::open || peer_gone_) return;
  const std::size_t size = stream_message_size(payload);
  if (delivering_ && send_queue_bytes() + size > kMaxSendQueue) {
    // Deferring must not overflow where writing at once would not: write
    // what the socket takes before judging the queue.
    flush();
    if (phase_ != Phase::open) return;
  }
  const std::size_t queued = send_queue_bytes();
  if (queued + size > kMaxSendQueue) {
    // The peer has stopped reading: buffering on would grow without bound.
    transport_.note_send_queue_overflow();
    PH_LOG(warn, "socket") << "channel to device " << remote_
                           << ": peer is not reading, " << queued
                           << " bytes already queued; breaking";
    fail(Error{Errc::connection_lost, "peer is not reading"});
    return;
  }
  transport_.note_channel_send(payload.size());
  send_frame(proto::FrameKind::channel_data, payload);
}

void SocketChannelState::send_ping(std::uint64_t wall_us) {
  if (phase_ != Phase::open || peer_gone_) return;
  std::uint8_t stamp[8];
  proto::store_le(stamp, wall_us);
  transport_.note_rtt_probe();
  send_frame(proto::FrameKind::channel_ping, stamp);
}

void SocketChannelState::send_frame(proto::FrameKind kind, BytesView payload) {
  append_stream_message(out_buf_, kind, payload);
  if (!delivering_) flush();
}

void SocketChannelState::flush() {
  while (phase_ != Phase::closed && out_pos_ < out_buf_.size()) {
    const std::size_t remaining = out_buf_.size() - out_pos_;
    const ssize_t n =
        ::send(fd_, out_buf_.data() + out_pos_, remaining, MSG_NOSIGNAL);
    if (n > 0) {
      transport_.note_stream_write();
      if (static_cast<std::size_t>(n) < remaining) {
        transport_.note_partial_write();
      }
      out_pos_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      transport_.note_backpressure();
      // Drop the written prefix once it dominates, so a peer that reads
      // slowly cannot pin already-sent bytes in memory.
      if (out_pos_ >= out_buf_.size() / 2) {
        out_buf_.erase(out_buf_.begin(),
                       out_buf_.begin() +
                           static_cast<std::ptrdiff_t>(out_pos_));
        out_pos_ = 0;
      }
      if (!want_write_) {
        want_write_ = true;
        transport_.rearm_fd(fd_, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    fail(Error{Errc::device_unreachable, "stream write failed"});
    return;
  }
  if (out_pos_ >= out_buf_.size()) {
    out_buf_.clear();
    out_pos_ = 0;
    if (want_write_) {
      want_write_ = false;
      if (phase_ != Phase::closed) transport_.rearm_fd(fd_, EPOLLIN);
    }
  }
}

void SocketChannelState::handle_io(std::uint32_t events) {
  if (phase_ == Phase::closed) return;
  if (events & EPOLLOUT) flush();
  if (phase_ == Phase::closed) return;  // flush hit a hard error
  // EPOLLERR/EPOLLHUP also take the read path: recv drains whatever the
  // peer sent before resetting, then reports EOF, which breaks the channel.
  if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
    std::uint8_t buf[kReadChunk];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        in_buf_.insert(in_buf_.end(), buf, buf + n);
        // A short read emptied the socket: stop without the recv that
        // would only say EAGAIN. epoll is level-triggered, so bytes or an
        // EOF that arrive meanwhile wake this fd again.
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EOF or hard error — the peer is gone, but complete frames it sent
      // before closing are already in in_buf_ and must be delivered in
      // order before the break (a graceful send-then-close must not lose
      // its tail, nor surface as connection_lost).
      peer_gone_ = true;
      break;
    }
    deliver_frames();
    if (phase_ != Phase::closed && peer_gone_) {
      // Break deferred: data frames are buffered but no receive handler is
      // installed yet. Nothing further can arrive after EOF, and epoll
      // reports HUP unconditionally (level-triggered), so stop watching the
      // dead fd; chan_on_receive's drain delivers the tail and breaks.
      transport_.unwatch_fd(fd_);
    }
  }
}

/// Parses every complete length-prefixed frame, in order — the one place
/// that reads a stream length prefix. The first frame of an opening stream
/// goes to its opening handler; after that, data frames are delivered. A
/// data frame is never consumed while no receive handler is installed —
/// it stays buffered until chan_on_receive drains it — preserving the
/// exactly-once in-order contract. Frames sent meanwhile are queued and
/// written in one flush at the end. Once the peer is gone the stream fails
/// only after everything deliverable has been delivered.
void SocketChannelState::deliver_frames() {
  std::size_t pos = 0;
  bool stalled = false;
  delivering_ = true;
  while (phase_ != Phase::closed && in_buf_.size() - pos >= 4) {
    const std::uint32_t len =
        *proto::Reader(BytesView(in_buf_).subspan(pos, 4)).u32();
    if (len > kMaxStreamFrame) {
      transport_.note_bad_frame();
      fail(Error{Errc::protocol_error, "stream frame over kMaxStreamFrame"});
      break;
    }
    if (in_buf_.size() - pos - 4 < len) break;
    const BytesView frame_bytes = BytesView(in_buf_).subspan(pos + 4, len);
    auto frame = proto::decode_frame(frame_bytes);
    if (phase_ == Phase::opening) {
      pos += 4 + len;
      if (!frame) {
        transport_.note_bad_frame();
        fail(std::move(frame).error());
        break;
      }
      auto handler = std::move(on_opening_);
      on_opening_ = nullptr;
      handler(*this, *frame);
      continue;
    }
    // RTT probes are transport-internal: consumed here, before the
    // no-handler stall check, never surfaced to the receive handler.
    if (frame && frame->kind == proto::FrameKind::channel_ping) {
      pos += 4 + len;
      if (frame->payload.size() >= 8 && !peer_gone_) {
        send_frame(proto::FrameKind::channel_pong, frame->payload.subspan(0, 8));
      }
      continue;
    }
    if (frame && frame->kind == proto::FrameKind::channel_pong) {
      pos += 4 + len;
      if (auto echoed = proto::Reader(frame->payload).u64()) {
        const std::uint64_t now = transport_.wall_now_us();
        if (now >= *echoed) transport_.note_rtt_sample(now - *echoed);
      }
      continue;
    }
    if (frame && frame->kind == proto::FrameKind::channel_data &&
        !on_receive_) {
      stalled = true;  // keep buffered until a handler is installed
      break;
    }
    pos += 4 + len;
    if (!frame || frame->kind != proto::FrameKind::channel_data) {
      transport_.note_bad_frame();
      continue;
    }
    transport_.note_channel_receive(frame->payload.size());
    // Called in place: the slot keeps the running handler alive when it
    // replaces itself (session handshake → attach_channel).
    on_receive_(frame->payload);
  }
  if (pos > 0) in_buf_.erase(in_buf_.begin(), in_buf_.begin() + pos);
  delivering_ = false;
  // The delivery's one write, before any break: a handshake reply to a
  // peer that half-closed after channel_open still reaches it. A socket
  // already waiting for EPOLLOUT takes the queue when it drains.
  if (phase_ != Phase::closed && !want_write_) flush();
  if (phase_ != Phase::closed && peer_gone_ && !stalled) {
    // Bytes left at EOF are a frame the peer cut off mid-write.
    if (!in_buf_.empty()) transport_.note_bad_frame();
    fail(Error{Errc::device_unreachable, "peer closed the stream"});
  }
}

void SocketChannelState::schedule_drain() {
  if (phase_ != Phase::open || drain_pending_ || !on_receive_) return;
  if (in_buf_.empty() && !peer_gone_) return;
  drain_pending_ = true;
  auto self = shared_from_this();
  transport_.scheduler().schedule(0, [self]() {
    self->drain_pending_ = false;
    if (self->phase_ == Phase::open) self->deliver_frames();
  });
}

void SocketChannelState::chan_close() {
  if (phase_ == Phase::closed) return;
  // Push out whatever is queued without blocking; the peer then sees EOF.
  while (out_pos_ < out_buf_.size()) {
    const ssize_t n = ::send(fd_, out_buf_.data() + out_pos_,
                             out_buf_.size() - out_pos_, MSG_NOSIGNAL);
    if (n <= 0) break;
    transport_.note_stream_write();
    out_pos_ += static_cast<std::size_t>(n);
  }
  close_fd();
  on_opening_ = nullptr;
  on_receive_ = nullptr;
  on_break_ = nullptr;  // local close is not a break
}

void SocketChannelState::fail(Error why) {
  if (phase_ == Phase::closed) return;
  const bool was_open = phase_ == Phase::open;
  close_fd();
  if (!was_open) {
    auto handler = std::move(on_opening_);
    on_opening_ = nullptr;
    if (handler) handler(*this, std::move(why));
    return;
  }
  transport_.note_channel_break();
  auto handler = std::move(on_break_);
  on_break_ = nullptr;
  on_receive_ = nullptr;
  if (handler) handler();
}

void SocketChannelState::close_fd() {
  phase_ = Phase::closed;
  transport_.scheduler().cancel(std::exchange(open_timer_, 0));
  transport_.unwatch_fd(fd_);
  ::close(fd_);
  fd_ = -1;
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketEndpoint — one device × technology attachment point.
// ---------------------------------------------------------------------------

class SocketTransport::SocketEndpoint final : public Endpoint {
 public:
  SocketEndpoint(SocketTransport& transport, DeviceId device,
                 net::TechProfile profile)
      : t_(transport), device_(device), profile_(std::move(profile)) {
    bring_up();
  }

  ~SocketEndpoint() override {
    tear_down(/*notify=*/false);  // silent, like tearing down a Medium
  }

  DeviceId device() const override { return device_; }
  const net::TechProfile& profile() const override { return profile_; }

  void set_powered(bool on) override {
    if (powered_ == on) return;
    powered_ = on;
    if (on) {
      bring_up();
    } else {
      tear_down(/*notify=*/true);
    }
  }
  bool powered() const override { return powered_; }

  void start_inquiry(InquiryHandler done) override;
  void bind(net::Port port, DatagramHandler handler) override {
    dgram_handlers_[port] = std::move(handler);
  }
  void unbind(net::Port port) override { dgram_handlers_.erase(port); }
  void send_datagram(DeviceId dst, net::Port port, BytesView payload) override;
  void broadcast_datagram(net::Port port, BytesView payload) override;
  void listen(net::Port port, AcceptHandler on_accept) override {
    listeners_[port] = std::move(on_accept);
  }
  void stop_listen(net::Port port) override { listeners_.erase(port); }
  void connect(DeviceId dst, net::Port port, ConnectHandler done) override;
  double signal_to(DeviceId dst) const override;

  std::size_t open_channel_count() const {
    std::size_t n = 0;
    for (const auto& weak : channels_) {
      if (auto ch = weak.lock(); ch && ch->chan_open()) ++n;
    }
    return n;
  }

  /// Telemetry scrape over every live channel: send an RTT probe and sum
  /// the queue depths into the caller's per-device accumulators. Channels
  /// are pinned first — a probe's flush may break a channel, whose break
  /// handler may open new ones and reshape channels_ under an iterator.
  void scrape_channels(std::uint64_t wall_us, std::size_t& send_bytes,
                       std::size_t& recv_bytes) {
    std::vector<std::shared_ptr<SocketChannelState>> live;
    live.reserve(channels_.size());
    for (const auto& weak : channels_) {
      if (auto ch = weak.lock(); ch && ch->chan_open()) {
        live.push_back(std::move(ch));
      }
    }
    for (const auto& ch : live) {
      ch->send_ping(wall_us);
      send_bytes += ch->send_queue_bytes();
      recv_bytes += ch->recv_queue_bytes();
    }
  }

 private:
  void bring_up();
  void tear_down(bool notify);
  void handle_dgram_readable();
  void handle_listen_readable();
  /// The acceptor's half of the handshake: answers the peer's first frame
  /// with channel_accept (and hands the open channel to the listener) or
  /// channel_reject.
  void answer_channel_open(SocketChannelState& state,
                           Result<proto::FrameView> open);
  std::vector<DeviceId> scan_peers() const;
  /// Wraps a fresh stream fd in a channel state and starts its opening
  /// phase (see SocketChannelState::start).
  std::shared_ptr<SocketChannelState> open_stream(
      int fd, sim::Duration timeout,
      SocketChannelState::OpeningHandler on_first_frame);

  SocketTransport& t_;
  DeviceId device_;
  net::TechProfile profile_;
  bool powered_ = true;
  int dgram_fd_ = -1;
  int listen_fd_ = -1;
  std::map<net::Port, DatagramHandler> dgram_handlers_;
  std::map<net::Port, AcceptHandler> listeners_;
  /// Every stream socket of this endpoint, opening or open.
  std::vector<std::weak_ptr<SocketChannelState>> channels_;
};

void SocketTransport::SocketEndpoint::bring_up() {
  const std::string dpath = endpoint_path(t_.dir_, device_, profile_.tech, "dgram");
  const std::string spath = endpoint_path(t_.dir_, device_, profile_.tech, "stream");
  ::unlink(dpath.c_str());
  ::unlink(spath.c_str());

  dgram_fd_ = make_socket(SOCK_DGRAM);
  PH_CHECK_MSG(dgram_fd_ >= 0, "socket(AF_UNIX, SOCK_DGRAM) failed");
  sockaddr_un daddr = make_addr(dpath);
  PH_CHECK_MSG(::bind(dgram_fd_, reinterpret_cast<sockaddr*>(&daddr),
                      sizeof(daddr)) == 0,
               "bind() of datagram socket failed");
  t_.watch_fd(dgram_fd_, EPOLLIN,
              [this](std::uint32_t) { handle_dgram_readable(); });

  listen_fd_ = make_socket(SOCK_STREAM);
  PH_CHECK_MSG(listen_fd_ >= 0, "socket(AF_UNIX, SOCK_STREAM) failed");
  sockaddr_un saddr = make_addr(spath);
  PH_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&saddr),
                      sizeof(saddr)) == 0,
               "bind() of stream socket failed");
  PH_CHECK_MSG(::listen(listen_fd_, 64) == 0, "listen() failed");
  t_.watch_fd(listen_fd_, EPOLLIN,
              [this](std::uint32_t) { handle_listen_readable(); });
}

void SocketTransport::SocketEndpoint::tear_down(bool notify) {
  if (dgram_fd_ >= 0) {
    t_.unwatch_fd(dgram_fd_);
    ::close(dgram_fd_);
    dgram_fd_ = -1;
    ::unlink(endpoint_path(t_.dir_, device_, profile_.tech, "dgram").c_str());
  }
  if (listen_fd_ >= 0) {
    t_.unwatch_fd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(endpoint_path(t_.dir_, device_, profile_.tech, "stream").c_str());
  }
  // A pending connect fails with connect_failed and a pending accept closes
  // without a reply; an open channel breaks, or closes silently when the
  // endpoint is being destroyed. Closing unregisters the fd handler,
  // releasing the loop's owning reference.
  auto channels = std::move(channels_);
  channels_.clear();
  for (auto& weak : channels) {
    auto ch = weak.lock();
    if (!ch) continue;
    if (notify || ch->opening()) {
      ch->fail(Error{Errc::connect_failed, "local endpoint powered off"});
    } else {
      ch->chan_close();
    }
  }
}

void SocketTransport::SocketEndpoint::handle_dgram_readable() {
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(dgram_fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    auto frame = proto::decode_frame(BytesView(buf, static_cast<std::size_t>(n)));
    if (!frame || frame->kind != proto::FrameKind::datagram ||
        frame->payload.size() < 6) {
      t_.note_bad_frame();
      continue;
    }
    proto::Reader head(frame->payload);
    const DeviceId src = *head.u32();
    const net::Port port = *head.u16();
    t_.metrics_.datagrams_received->inc();
    auto it = dgram_handlers_.find(port);
    if (it == dgram_handlers_.end()) continue;
    // Copy the handler: it may rebind (or unbind) this very port.
    DatagramHandler handler = it->second;
    handler(src, frame->payload.subspan(6));
  }
}

void SocketTransport::SocketEndpoint::send_datagram(DeviceId dst, net::Port port,
                                                    BytesView payload) {
  if (!powered_) return;
  // One buffer: envelope header, u32 src, u16 port, payload.
  std::uint8_t head[6];
  proto::store_le(head, device_);
  proto::store_le(head + 4, port);
  Bytes frame;
  frame.reserve(proto::kFrameHeaderSize + sizeof(head) + payload.size());
  proto::append_frame(frame, proto::FrameKind::datagram, head);
  frame.insert(frame.end(), payload.begin(), payload.end());
  const std::string path = endpoint_path(t_.dir_, dst, profile_.tech, "dgram");
  sockaddr_un addr = make_addr(path);
  // Fire and forget: an absent or unpowered peer just loses the frame,
  // exactly the unreliable-datagram contract.
  ::sendto(dgram_fd_, frame.data(), frame.size(), MSG_NOSIGNAL,
           reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  t_.metrics_.datagrams_sent->inc();
  t_.metrics_.datagram_bytes->inc(payload.size());
}

void SocketTransport::SocketEndpoint::broadcast_datagram(net::Port port,
                                                         BytesView payload) {
  if (!powered_ || !profile_.supports_broadcast) return;
  for (DeviceId peer : scan_peers()) {
    send_datagram(peer, port, payload);
  }
}

std::vector<DeviceId> SocketTransport::SocketEndpoint::scan_peers() const {
  std::vector<DeviceId> found;
  DIR* dir = ::opendir(t_.dir_.c_str());
  if (dir == nullptr) return found;
  while (dirent* entry = ::readdir(dir)) {
    const DeviceId id = parse_dgram_entry(entry->d_name, profile_.tech);
    if (id != net::kInvalidNode && id != device_) found.push_back(id);
  }
  ::closedir(dir);
  std::sort(found.begin(), found.end());
  return found;
}

void SocketTransport::SocketEndpoint::start_inquiry(InquiryHandler done) {
  // The scan takes the technology's inquiry duration (virtual time), then
  // reports whoever has a datagram socket in the rendezvous directory —
  // the socket substrate's "in radio range and answering".
  t_.scheduler_->schedule(
      profile_.inquiry_duration, [this, done = std::move(done)]() {
        if (!powered_) {
          done({});
          return;
        }
        std::vector<DeviceId> found;
        for (DeviceId peer : scan_peers()) {
          if (profile_.inquiry_detect_prob >= 1.0 ||
              t_.rng_.chance(profile_.inquiry_detect_prob)) {
            found.push_back(peer);
          }
        }
        done(std::move(found));
      });
}

double SocketTransport::SocketEndpoint::signal_to(DeviceId dst) const {
  if (!powered_) return 0.0;
  const std::string path = endpoint_path(t_.dir_, dst, profile_.tech, "dgram");
  return ::access(path.c_str(), F_OK) == 0 ? 1.0 : 0.0;
}

std::shared_ptr<SocketChannelState> SocketTransport::SocketEndpoint::open_stream(
    int fd, sim::Duration timeout,
    SocketChannelState::OpeningHandler on_first_frame) {
  auto state = std::make_shared<SocketChannelState>(t_, fd, profile_.tech);
  std::erase_if(channels_, [](const auto& weak) { return weak.expired(); });
  channels_.push_back(state);
  state->start(timeout, std::move(on_first_frame));
  return state;
}

// --- accept side -----------------------------------------------------------

void SocketTransport::SocketEndpoint::handle_listen_readable() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient error — epoll will re-notify
    }
    // A peer that connects but never sends channel_open must not pin the
    // fd forever.
    open_stream(fd, sim::seconds(10),
                [this](SocketChannelState& state, Result<proto::FrameView> open) {
                  answer_channel_open(state, std::move(open));
                });
  }
}

void SocketTransport::SocketEndpoint::answer_channel_open(
    SocketChannelState& state, Result<proto::FrameView> open) {
  // Timed out, cut off or unreadable before channel_open: already closed,
  // and a peer that never finished its request gets no reply.
  if (!open) return;
  if (open->kind != proto::FrameKind::channel_open ||
      open->payload.size() < 6) {
    t_.note_bad_frame();
    state.chan_close();
    return;
  }
  proto::Reader request(open->payload);
  const DeviceId src = *request.u32();
  const net::Port port = *request.u16();
  auto listener = listeners_.find(port);
  if (listener == listeners_.end()) {
    const auto reason = static_cast<std::uint8_t>(Errc::connect_failed);
    state.send_frame(proto::FrameKind::channel_reject, BytesView(&reason, 1));
    state.chan_close();
    return;
  }
  std::uint8_t reply[4];
  proto::store_le(reply, device_);
  // Queued, not yet written: it goes out with whatever the listener sends
  // in this delivery.
  state.send_frame(proto::FrameKind::channel_accept, reply);
  state.establish(src);
  AcceptHandler handler = listener->second;  // copy — may stop_listen inside
  t_.metrics_.channels_accepted->inc();
  t_.metrics_.handshake_us->observe(
      static_cast<double>(t_.wall_now_us() - state.started_wall_us()));
  handler(Channel(state.shared_from_this()));
}

// --- connect side ----------------------------------------------------------

void SocketTransport::SocketEndpoint::connect(DeviceId dst, net::Port port,
                                              ConnectHandler done) {
  if (!powered_) {
    t_.scheduler_->schedule(0, [done = std::move(done)]() {
      done(Error{Errc::connect_failed, "local adapter powered off"});
    });
    return;
  }
  const int fd = make_socket(SOCK_STREAM);
  PH_CHECK_MSG(fd >= 0, "socket(AF_UNIX, SOCK_STREAM) failed");
  const std::string path = endpoint_path(t_.dir_, dst, profile_.tech, "stream");
  sockaddr_un addr = make_addr(path);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    const Errc code = (errno == ENOENT || errno == ECONNREFUSED)
                          ? Errc::device_unreachable
                          : Errc::connect_failed;
    ::close(fd);
    t_.scheduler_->schedule(0, [done = std::move(done), code, dst]() {
      done(Error{code, "device " + std::to_string(dst) + ": " +
                           std::string(to_string(code))});
    });
    return;
  }
  auto state = open_stream(
      fd, profile_.connect_latency + sim::seconds(10),
      [this, dst, done = std::move(done)](SocketChannelState& stream,
                                          Result<proto::FrameView> reply) {
        // Timed out, cut off, unreadable or powered off: already closed.
        if (!reply) return done(std::move(reply).error());
        if (reply->kind == proto::FrameKind::channel_reject) {
          const Errc code = reply->payload.empty()
                                ? Errc::connect_failed
                                : static_cast<Errc>(std::min<std::uint8_t>(
                                      reply->payload[0],
                                      static_cast<std::uint8_t>(kMaxErrc)));
          stream.chan_close();
          return done(Error{code == Errc::ok ? Errc::connect_failed : code,
                            "peer rejected channel open"});
        }
        if (reply->kind != proto::FrameKind::channel_accept) {
          stream.chan_close();
          return done(
              Error{Errc::protocol_error, "unexpected handshake reply"});
        }
        stream.establish(dst);
        t_.metrics_.channels_opened->inc();
        t_.metrics_.handshake_us->observe(
            static_cast<double>(t_.wall_now_us() - stream.started_wall_us()));
        done(Channel(stream.shared_from_this()));
      });
  std::uint8_t request[6];
  proto::store_le(request, device_);
  proto::store_le(request + 4, port);
  state->send_frame(proto::FrameKind::channel_open, request);
}


// ---------------------------------------------------------------------------
// SocketTransport
// ---------------------------------------------------------------------------

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      next_device_(config_.first_device_id == net::kInvalidNode
                       ? 1
                       : config_.first_device_id) {
  if (config_.socket_dir.empty()) {
    char tmpl[] = "/tmp/ph_socket_XXXXXX";
    PH_CHECK_MSG(::mkdtemp(tmpl) != nullptr, "mkdtemp() failed");
    dir_ = tmpl;
    owns_dir_ = true;
  } else {
    dir_ = config_.socket_dir;
    ::mkdir(dir_.c_str(), 0700);  // EEXIST is fine — shared directories
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  PH_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1() failed");
  scheduler_ = std::make_unique<WallScheduler>(*this, config_.time_scale);
  device_names_.emplace_back();  // index 0 = kInvalidNode

  metrics_ = register_transport_metrics(registry_);
  h_loop_lag_ = &registry_.histogram("transport.socket.loop.lag_us");
  h_loop_dispatch_ = &registry_.histogram("transport.socket.loop.dispatch_us");
  g_wait_stall_ = &registry_.gauge("transport.socket.loop.wait_stall_us");
  c_stream_writes_ = &registry_.counter("transport.socket.stream_writes");
  c_partial_writes_ = &registry_.counter("transport.socket.partial_writes");
  c_backpressure_ = &registry_.counter("transport.socket.backpressure");
  c_send_queue_overflows_ =
      &registry_.counter("transport.socket.send_queue_overflows");
  c_rtt_probes_ = &registry_.counter("transport.socket.rtt_probes");

  // This backend's journal stamps are wall-derived (virtual µs = wall µs ×
  // time_scale); tag the domain so /flight and PH_TRACE_JSON exports are
  // never mistaken for simulated time.
  trace_.set_clock_domain("wall");

  if (config_.sample_interval_us > 0) enable_telemetry();
  if (config_.profiler) enable_profiler();  // before ops: /profile source
  if (config_.ops_server) {
    auto started = enable_ops_server();
    PH_CHECK_MSG(started.ok(), "ops server failed to start");
  }
}

SocketTransport::~SocketTransport() {
  if (profiler_ != nullptr) {
    profiler_->stop();
    profiler_->unregister_thread();  // fold the loop thread's samples
    obs::prof::dump_folded_if_requested(*profiler_);
  }
  endpoints_.clear();  // unlinks sockets, closes fds, silently drops channels
  ops_.reset();        // closes + unlinks the ops socket before any rmdir
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (owns_dir_) ::rmdir(dir_.c_str());  // best-effort; fails if shared
}

Scheduler& SocketTransport::scheduler() { return *scheduler_; }
const Scheduler& SocketTransport::scheduler() const { return *scheduler_; }

DeviceId SocketTransport::add_device(
    std::string name, std::unique_ptr<sim::MobilityModel> /*mobility*/) {
  device_names_.push_back(std::move(name));
  return next_device_++;
}

Endpoint& SocketTransport::add_endpoint(DeviceId device,
                                        net::TechProfile profile) {
  const auto key = std::make_pair(device, profile.tech);
  PH_CHECK_MSG(!endpoints_.contains(key),
               "one endpoint per (device, technology)");
  auto endpoint =
      std::make_unique<SocketEndpoint>(*this, device, std::move(profile));
  auto [it, inserted] = endpoints_.emplace(key, std::move(endpoint));
  return *it->second;
}

Endpoint* SocketTransport::endpoint(DeviceId device, net::Technology tech) {
  auto it = endpoints_.find(std::make_pair(device, tech));
  return it == endpoints_.end() ? nullptr : it->second.get();
}

std::size_t SocketTransport::open_channel_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [key, endpoint] : endpoints_) n += endpoint->open_channel_count();
  return n;
}

void SocketTransport::watch_fd(int fd, std::uint32_t events,
                               std::function<void(std::uint32_t)> handler) {
  const std::uint64_t token = next_watch_token_++;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = token;
  PH_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
               "epoll_ctl(ADD) failed");
  watch_handlers_[token] =
      std::make_shared<std::function<void(std::uint32_t)>>(std::move(handler));
  fd_tokens_[fd] = token;
}

void SocketTransport::rearm_fd(int fd, std::uint32_t events) {
  auto it = fd_tokens_.find(fd);
  if (it == fd_tokens_.end()) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = it->second;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void SocketTransport::unwatch_fd(int fd) {
  auto it = fd_tokens_.find(fd);
  if (it == fd_tokens_.end()) return;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  watch_handlers_.erase(it->second);
  fd_tokens_.erase(it);
}

void SocketTransport::pump_epoll(int timeout_ms) {
  epoll_event events[64];
  const std::uint64_t wait_start = wall_clock_.now();
  int n = 0;
  {
    // Mode 2 samples landing here attribute to transport.idle — the loop
    // is parked in the kernel, not burning CPU.
    const obs::prof::Scope idle(obs::prof::Center::transport_idle);
    n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  }
  // Wait stall: how far past the requested timeout the kernel actually
  // held us — scheduler jitter and ready-list storms, not our handlers.
  const std::uint64_t waited = wall_clock_.now() - wait_start;
  const std::uint64_t budget =
      static_cast<std::uint64_t>(timeout_ms < 0 ? 0 : timeout_ms) * 1000;
  g_wait_stall_->set(waited > budget ? static_cast<double>(waited - budget)
                                     : 0.0);
  for (int i = 0; i < n; ++i) {
    // Look up by watch token, per event: an earlier handler in this batch
    // may have unregistered the watch (closed channel, settled handshake),
    // and the fd number may already belong to a newly opened socket — the
    // retired token makes the stale event drop instead of misrouting.
    auto it = watch_handlers_.find(events[i].data.u64);
    if (it == watch_handlers_.end()) continue;
    // A second reference, not a copy of the closure: the handler may
    // unwatch its own fd, and must outlive that.
    const WatchHandler handler = it->second;
    const std::uint64_t t0 = wall_clock_.now();
    {
      const obs::prof::Scope io(obs::prof::Center::transport_io);
      (*handler)(events[i].events);
    }
    h_loop_dispatch_->observe(static_cast<double>(wall_clock_.now() - t0));
  }
}

void SocketTransport::note_channel_send(std::size_t bytes) {
  metrics_.channel_messages->inc();
  metrics_.channel_bytes->inc(bytes);
}

void SocketTransport::note_channel_receive(std::size_t bytes) {
  metrics_.channel_bytes->inc(bytes);
}

void SocketTransport::note_channel_break() {
  metrics_.channels_broken->inc();
}

void SocketTransport::note_bad_frame() { metrics_.bad_frames->inc(); }

void SocketTransport::note_partial_write() { c_partial_writes_->inc(); }

void SocketTransport::note_stream_write() { c_stream_writes_->inc(); }

void SocketTransport::note_send_queue_overflow() {
  c_send_queue_overflows_->inc();
}

void SocketTransport::note_backpressure() { c_backpressure_->inc(); }

void SocketTransport::note_rtt_probe() { c_rtt_probes_->inc(); }

void SocketTransport::note_rtt_sample(std::uint64_t rtt_wall_us) {
  metrics_.channel_rtt_us->observe(static_cast<double>(rtt_wall_us));
}

void SocketTransport::enable_telemetry() {
  if (sampler_ != nullptr) return;
  if (config_.sample_interval_us == 0) {
    config_.sample_interval_us = 100'000;  // 100 ms wall default
  }
  obs::SamplerConfig sampler_config;
  sampler_config.interval_us = config_.sample_interval_us;
  sampler_ = std::make_unique<obs::Sampler>(registry_, wall_clock_,
                                            sampler_config);
  slo_ = std::make_unique<obs::SloEngine>(*sampler_, registry_, &trace_);
  scrape_telemetry();  // first scrape baselines the diff cursors
}

void SocketTransport::scrape_telemetry() {
  // Attribute the scrape itself (Mode 2 span) and its re-arm timer below
  // (pending schedule tag) to transport.telemetry.
  const obs::prof::TagScope tag(obs::prof::Center::transport_telemetry);
  const obs::prof::Scope span(obs::prof::Center::transport_telemetry);
  const std::uint64_t wall = wall_clock_.now();
  // Queue-depth gauges per device, summed across its endpoints' channels;
  // RTT probes ride the same pass. endpoints_ is ordered by device, so each
  // device's endpoints are one run. A device's gauges are registered at its
  // first scrape; later scrapes reuse the cached handles.
  for (auto it = endpoints_.begin(); it != endpoints_.end();) {
    const DeviceId device = it->first.first;
    std::size_t send_bytes = 0;
    std::size_t recv_bytes = 0;
    for (; it != endpoints_.end() && it->first.first == device; ++it) {
      it->second->scrape_channels(wall, send_bytes, recv_bytes);
    }
    auto [gauges, fresh] = queue_gauges_.try_emplace(device);
    if (fresh) {
      const std::string prefix =
          "transport.socket.d" + std::to_string(device) + ".";
      gauges->second = {&registry_.gauge(prefix + "send_queue_bytes"),
                        &registry_.gauge(prefix + "recv_queue_bytes")};
    }
    gauges->second.send->set(static_cast<double>(send_bytes));
    gauges->second.recv->set(static_cast<double>(recv_bytes));
  }
  sampler_->sample();
  slo_->evaluate();
  // Wall interval mapped into the scheduler's virtual microseconds.
  const double scale = config_.time_scale > 0.0 ? config_.time_scale : 1.0;
  const auto delay = static_cast<sim::Duration>(
      static_cast<double>(config_.sample_interval_us) * scale);
  scheduler_->schedule(delay > 0 ? delay : 1, [this]() { scrape_telemetry(); });
}

void SocketTransport::enable_profiler() {
  if (profiler_ != nullptr) return;
  profiler_ = std::make_unique<obs::prof::WallProfiler>();
  // The transport is single-threaded: construction and run_until happen on
  // the same (loop) thread, so registering here binds the right stack.
  profiler_->register_thread("loop");
  profiler_->start();
}

Result<void> SocketTransport::enable_ops_server() {
  if (ops_ != nullptr) return ok();
  enable_telemetry();
  obs::OpsServerConfig ops_config;
  ops_config.socket_path =
      dir_ + "/d" + std::to_string(config_.first_device_id) + ".ops";
  ops_config.trace_ts_divisor =
      config_.time_scale > 0.0 ? config_.time_scale : 1.0;
  obs::OpsSources sources;
  sources.registry = &registry_;
  sources.trace = &trace_;
  sources.sampler = sampler_.get();
  sources.slo = slo_.get();
  sources.profiler = profiler_.get();
  sources.device_names = [this]() {
    std::map<std::uint64_t, std::string> names;
    for (DeviceId id = config_.first_device_id;
         id < config_.first_device_id + device_names_.size() - 1; ++id) {
      const auto& name = device_names_[id - config_.first_device_id + 1];
      if (!name.empty()) names[id] = name;
    }
    return names;
  };
  auto server =
      std::make_unique<obs::OpsServer>(std::move(ops_config),
                                       std::move(sources));
  if (auto started = server->start(); !started.ok()) {
    return started;
  }
  ops_ = std::move(server);
  watch_fd(ops_->fd(), EPOLLIN,
           [this](std::uint32_t) { ops_->handle_readable(); });
  return ok();
}

}  // namespace ph::transport
