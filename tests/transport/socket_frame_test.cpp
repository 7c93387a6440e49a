// Byte-stream adversarial tests for SocketTransport's channel framing.
//
// A raw AF_UNIX peer completes the stream handshake with a real endpoint
// (length-prefixed proto::Frame channel_open, channel_accept back), then
// feeds the channel byte sequences a well-behaved endpoint never sends:
// frames split into single bytes, frames coalesced into one write, a frame
// cut off by EOF, an oversized length prefix, a bad envelope and a
// half-close. The endpoint must reassemble in order, break where the
// stream is unusable, and count every bad frame in transport.bad_frames.
// A raw peer that never reads must not grow the endpoint's send queue
// without bound, nor stall the endpoint's other channels.
//
// The handshake runs through the same reader, so it gets the same
// treatment from both sides: a raw peer dials the endpoint's stream
// socket (accept side), and a raw listener bound where the endpoint
// expects a peer device answers its connect (connect side).
//
// The write and read rules are pinned through
// transport.socket.stream_writes rather than timing: frames a receive
// turn queues leave in one send, a send outside a delivery leaves at once,
// and a short read ends the read loop.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "proto/frame.hpp"
#include "transport/socket_transport.hpp"

namespace ph::transport {
namespace {

constexpr net::Port kPort = 7000;
constexpr DeviceId kRawDevice = 99;

void append_u32(Bytes& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

/// One length-prefixed stream message, exactly as an endpoint writes it.
Bytes stream_message(proto::FrameKind kind, BytesView payload) {
  const Bytes frame = proto::encode_frame(kind, payload);
  Bytes out;
  append_u32(out, static_cast<std::uint32_t>(frame.size()));
  out.insert(out.end(), frame.begin(), frame.end());
  return out;
}

Bytes data_message(std::string_view text) {
  return stream_message(proto::FrameKind::channel_data, to_bytes(text));
}

/// The body of a channel_open: u32 source device, u16 destination port.
Bytes open_body(DeviceId src, net::Port port) {
  Bytes body;
  append_u32(body, src);
  body.push_back(static_cast<std::uint8_t>(port & 0xFF));
  body.push_back(static_cast<std::uint8_t>(port >> 8));
  return body;
}

/// The raw peer's channel_open to `port`.
Bytes open_message(net::Port port) {
  return stream_message(proto::FrameKind::channel_open,
                        open_body(kRawDevice, port));
}

/// The stream socket path of `device` in `transport`'s rendezvous
/// directory (technology 0, Bluetooth).
std::string stream_path(const SocketTransport& transport, DeviceId device) {
  return transport.socket_dir() + "/d" + std::to_string(device) +
         ".t0.stream";
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// A raw stream connected to `path`, with no handshake sent; -1 on failure.
int dial(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const sockaddr_un addr = unix_addr(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// A raw listener bound at `path`, standing in for a peer device's stream
/// socket; -1 on failure.
int listen_raw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const sockaddr_un addr = unix_addr(path);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 4) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Pumps `scheduler` until `pred` holds or `limit` of virtual time passes.
template <typename Pred>
bool pump(Scheduler& scheduler, sim::Duration limit, Pred pred) {
  const sim::Time deadline = scheduler.now() + limit;
  while (scheduler.now() < deadline && !pred()) {
    scheduler.run_until(
        std::min(deadline, scheduler.now() + sim::milliseconds(5)));
  }
  return pred();
}

/// True once the raw peer on `fd` reads EOF, without consuming data.
bool at_eof(int fd) {
  std::uint8_t byte = 0;
  return ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT) == 0;
}

/// Reads one whole stream message from the blocking raw `fd`; nullopt on
/// EOF or a short read.
std::optional<Bytes> read_message(int fd) {
  std::uint8_t len_bytes[4];
  if (::recv(fd, len_bytes, 4, MSG_WAITALL) != 4) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i) len = (len << 8) | len_bytes[i];
  Bytes frame(len);
  if (len > 0 &&
      ::recv(fd, frame.data(), len, MSG_WAITALL) != static_cast<ssize_t>(len)) {
    return std::nullopt;
  }
  return frame;
}

/// Open file descriptors of this process.
std::size_t open_fd_count() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// A transport whose virtual clock runs 1000x the wall clock, so the 10 s
/// handshake timeouts pass in about 10 ms.
SocketTransportConfig fast_clock() {
  SocketTransportConfig config;
  config.time_scale = 1000.0;
  return config;
}

class SocketFrameTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const DeviceId host = transport_.add_device("host", nullptr);
    host_ = host;
    transport_.add_endpoint(host, net::bluetooth_2_0())
        .listen(kPort, [this](Channel channel) {
          accepted_.push_back(channel);
          if (accepted_.size() > 1) return;  // later peers: the test's own
          server_ = channel;
          server_.on_receive(
              [this](BytesView payload) { got_.push_back(to_text(payload)); });
          server_.on_break([this] { broke_ = true; });
        });
    fd_ = connect_raw();
    ASSERT_GE(fd_, 0);
    EXPECT_EQ(server_.remote_node(), kRawDevice);
  }

  /// Connects a raw AF_UNIX peer and completes the stream handshake; the
  /// endpoint's side of it is accepted_.back(). Returns the peer's fd, or
  /// -1 on failure (with a test failure recorded).
  int connect_raw() {
    const int fd = dial(stream_path(transport_, host_));
    EXPECT_GE(fd, 0);
    if (fd < 0) return -1;
    const Bytes open = open_message(kPort);
    EXPECT_EQ(::send(fd, open.data(), open.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(open.size()));
    const std::size_t before = accepted_.size();
    EXPECT_TRUE(pump_until([&] { return accepted_.size() > before; }));

    // The accept reply is already queued on the raw side.
    const Bytes accept =
        stream_message(proto::FrameKind::channel_accept, Bytes(4, 0));
    Bytes reply(accept.size());
    EXPECT_EQ(::recv(fd, reply.data(), reply.size(), MSG_WAITALL),
              static_cast<ssize_t>(reply.size()));
    auto frame = proto::decode_frame(BytesView(reply).subspan(4));
    EXPECT_TRUE(bool(frame));
    if (frame) {
      EXPECT_EQ(frame->kind, proto::FrameKind::channel_accept);
    }
    return fd;
  }

  void TearDown() override {
    if (fd_ >= 0) ::close(fd_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      ::unlink(stream_path(transport_, kRawDevice).c_str());
    }
  }

  void write_raw(BytesView bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  void close_raw() {
    ::close(fd_);
    fd_ = -1;
  }

  /// Pumps the endpoint's loop (real time: time_scale 1) until `pred`
  /// holds or 5 s pass.
  template <typename Pred>
  bool pump_until(Pred pred) {
    return pump(transport_.scheduler(), sim::seconds(5), pred);
  }

  /// Opens a channel from the endpoint to a raw listener posing as device
  /// kRawDevice. Returns the listener's accepted fd after reading (and
  /// checking) the channel_open, or -1; the connect result lands in
  /// connected_.
  int connect_to_raw() {
    listen_fd_ = listen_raw(stream_path(transport_, kRawDevice));
    EXPECT_GE(listen_fd_, 0);
    if (listen_fd_ < 0) return -1;
    transport_.endpoint(host_, net::Technology::bluetooth)
        ->connect(kRawDevice, kPort,
                  [this](Result<Channel> r) { connected_ = std::move(r); });
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    EXPECT_GE(fd, 0);
    if (fd < 0) return -1;
    const auto open = read_message(fd);
    EXPECT_TRUE(open.has_value());
    if (open) {
      auto frame = proto::decode_frame(*open);
      EXPECT_TRUE(bool(frame));
      if (frame) {
        EXPECT_EQ(frame->kind, proto::FrameKind::channel_open);
        EXPECT_EQ(Bytes(frame->payload.begin(), frame->payload.end()),
                  open_body(host_, kPort));
      }
    }
    return fd;
  }

  std::uint64_t counter(const char* name) {
    return transport_.registry().counter(name).value();
  }

  std::uint64_t bad_frames() { return counter("transport.bad_frames"); }

  std::uint64_t stream_writes() {
    return counter("transport.socket.stream_writes");
  }

  /// The raw peer's next message on fd_, as the payload text of a
  /// channel_data frame; "" on anything else.
  std::string read_data() {
    const auto message = read_message(fd_);
    if (!message) return "";
    auto frame = proto::decode_frame(*message);
    if (!frame || frame->kind != proto::FrameKind::channel_data) return "";
    return to_text(frame->payload);
  }

  /// Declared before transport_, which outlives it: a connect still
  /// pending at teardown reports into it.
  std::optional<Result<Channel>> connected_;
  SocketTransport transport_;
  DeviceId host_ = 0;
  int fd_ = -1;
  int listen_fd_ = -1;
  std::vector<Channel> accepted_;
  Channel server_;
  std::vector<std::string> got_;
  bool broke_ = false;
};

TEST_F(SocketFrameTest, SingleByteFragmentsReassembleInOrder) {
  Bytes stream = data_message("first");
  const Bytes second = data_message("second");
  stream.insert(stream.end(), second.begin(), second.end());
  const std::size_t first_end = stream.size() - second.size();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    write_raw(BytesView(stream).subspan(i, 1));
    transport_.scheduler().run_for(sim::milliseconds(2));
    // A frame surfaces once its last byte has arrived, never before.
    const std::size_t sent = i + 1;
    std::size_t whole = 0;
    if (sent >= first_end) whole = 1;
    if (sent == stream.size()) whole = 2;
    ASSERT_TRUE(pump_until([&] { return got_.size() >= whole; }));
    EXPECT_EQ(got_.size(), whole) << "after byte " << sent;
  }
  EXPECT_EQ(got_, (std::vector<std::string>{"first", "second"}));
  EXPECT_FALSE(broke_);
  EXPECT_EQ(bad_frames(), 0u);
}

TEST_F(SocketFrameTest, CoalescedFramesDeliverInOrder) {
  Bytes stream;
  for (const char* text : {"one", "two", "three"}) {
    const Bytes message = data_message(text);
    stream.insert(stream.end(), message.begin(), message.end());
  }
  write_raw(stream);
  ASSERT_TRUE(pump_until([this] { return got_.size() == 3; }));
  EXPECT_EQ(got_, (std::vector<std::string>{"one", "two", "three"}));
  EXPECT_TRUE(server_.open());
  EXPECT_EQ(bad_frames(), 0u);
}

TEST_F(SocketFrameTest, TruncatedFrameThenEofBreaksAfterWholeFrames) {
  Bytes stream = data_message("whole");
  const Bytes cut = data_message("cut off mid-write");
  stream.insert(stream.end(), cut.begin(), cut.begin() + 9);
  write_raw(stream);
  close_raw();
  ASSERT_TRUE(pump_until([this] { return broke_; }));
  EXPECT_EQ(got_, std::vector<std::string>{"whole"});
  EXPECT_FALSE(server_.open());
  EXPECT_EQ(bad_frames(), 1u);
}

TEST_F(SocketFrameTest, OversizedLengthPrefixBreaks) {
  Bytes stream = data_message("before");
  append_u32(stream, kMaxStreamFrame + 1);
  stream.insert(stream.end(), 16, 0xAB);
  write_raw(stream);
  ASSERT_TRUE(pump_until([this] { return broke_; }));
  EXPECT_EQ(got_, std::vector<std::string>{"before"});
  EXPECT_FALSE(server_.open());
  EXPECT_EQ(bad_frames(), 1u);
}

TEST_F(SocketFrameTest, BadMagicFrameIsCountedAndSkipped) {
  Bytes stream = data_message("a");
  Bytes corrupt = data_message("garbage");
  corrupt[4] ^= 0xFF;  // first magic byte, right after the length prefix
  stream.insert(stream.end(), corrupt.begin(), corrupt.end());
  const Bytes tail = data_message("b");
  stream.insert(stream.end(), tail.begin(), tail.end());
  write_raw(stream);
  ASSERT_TRUE(pump_until([this] { return got_.size() == 2; }));
  EXPECT_EQ(got_, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(server_.open());
  EXPECT_EQ(bad_frames(), 1u);
}

TEST_F(SocketFrameTest, HalfCloseDeliversEverySentFrameThenBreaks) {
  Bytes stream = data_message("x");
  const Bytes y = data_message("y");
  stream.insert(stream.end(), y.begin(), y.end());
  write_raw(stream);
  ASSERT_EQ(::shutdown(fd_, SHUT_WR), 0);
  ASSERT_TRUE(pump_until([this] { return broke_; }));
  EXPECT_EQ(got_, (std::vector<std::string>{"x", "y"}));
  EXPECT_FALSE(server_.open());
  EXPECT_EQ(bad_frames(), 0u);
  // A send after the break is discarded: the raw peer reads plain EOF.
  server_.send(to_bytes("late"));
  transport_.scheduler().run_for(sim::milliseconds(20));
  std::uint8_t buf[64];
  EXPECT_EQ(::recv(fd_, buf, sizeof(buf), 0), 0);
}

TEST_F(SocketFrameTest, SlowReaderIsBoundedAndOtherChannelsKeepFlowing) {
  // fd_ never reads. A second raw peer on the same endpoint reads and
  // writes normally.
  const int other_fd = connect_raw();
  ASSERT_GE(other_fd, 0);
  Channel slow = server_;
  Channel other = accepted_.back();
  std::vector<std::string> other_got;
  other.on_receive(
      [&](BytesView payload) { other_got.push_back(to_text(payload)); });

  const Bytes frame(64 * 1024, 0xAB);
  // Twice the queue bound: a sender without one would buffer all of it.
  const std::size_t max_sends = 2 * kMaxSendQueue / frame.size();
  std::size_t sent = 0;
  while (slow.open() && sent < max_sends) {
    slow.send(frame);
    ++sent;
    transport_.scheduler().run_for(sim::microseconds(200));
  }
  EXPECT_FALSE(slow.open()) << "queued " << sent << " frames of 64 KiB";
  EXPECT_TRUE(broke_);
  // The break came as soon as the queue would pass its bound (the kernel's
  // socket buffer holds what was written before that).
  EXPECT_LE(sent * frame.size(), kMaxSendQueue + 8 * frame.size());
  EXPECT_GT(counter("transport.socket.backpressure"), 0u);
  EXPECT_GT(counter("transport.socket.partial_writes"), 0u);
  EXPECT_EQ(counter("transport.socket.send_queue_overflows"), 1u);

  // The loop still serves the other channel, both ways.
  const Bytes hello = data_message("still here");
  ASSERT_EQ(::send(other_fd, hello.data(), hello.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(hello.size()));
  ASSERT_TRUE(pump_until([&] { return !other_got.empty(); }));
  EXPECT_EQ(other_got, std::vector<std::string>{"still here"});
  EXPECT_TRUE(other.open());
  other.send(to_bytes("reply"));
  const Bytes expected = data_message("reply");
  Bytes reply(expected.size());
  ASSERT_TRUE(pump_until([&] {
    return ::recv(other_fd, reply.data(), reply.size(),
                  MSG_PEEK | MSG_DONTWAIT) ==
           static_cast<ssize_t>(reply.size());
  }));
  ASSERT_EQ(::recv(other_fd, reply.data(), reply.size(), MSG_WAITALL),
            static_cast<ssize_t>(reply.size()));
  EXPECT_EQ(reply, expected);
  ::close(other_fd);
}

// --- write and read rules --------------------------------------------------

TEST_F(SocketFrameTest, FramesSentInOneDeliveryLeaveInOneWrite) {
  server_.on_receive([this](BytesView payload) {
    got_.push_back(to_text(payload));
    server_.send(to_bytes("first"));
    server_.send(to_bytes("second"));
  });
  const std::uint64_t before = stream_writes();
  write_raw(data_message("go"));
  ASSERT_TRUE(pump_until([&] { return stream_writes() > before; }));
  EXPECT_EQ(stream_writes() - before, 1u);
  EXPECT_EQ(got_, std::vector<std::string>{"go"});
  EXPECT_EQ(read_data(), "first");
  EXPECT_EQ(read_data(), "second");
}

TEST_F(SocketFrameTest, SendOutsideADeliveryIsWrittenAtOnce) {
  const std::uint64_t before = stream_writes();
  server_.send(to_bytes("now"));
  // No loop turn in between: the bytes are already in the peer's socket.
  const Bytes expected = data_message("now");
  Bytes got(expected.size());
  ASSERT_EQ(::recv(fd_, got.data(), got.size(), MSG_DONTWAIT),
            static_cast<ssize_t>(got.size()));
  EXPECT_EQ(got, expected);
  EXPECT_EQ(stream_writes() - before, 1u);
}

TEST_F(SocketFrameTest, SendThenCloseInAHandlerReachesThePeerBeforeEof) {
  server_.on_receive([this](BytesView) {
    server_.send(to_bytes("bye"));
    server_.close();
  });
  write_raw(data_message("go"));
  ASSERT_TRUE(pump_until([this] { return !server_.open(); }));
  EXPECT_EQ(read_data(), "bye");
  EXPECT_TRUE(at_eof(fd_));
  EXPECT_FALSE(broke_);  // a local close is not a break
}

TEST_F(SocketFrameTest, DataThenHalfCloseInOneBurstIsAnsweredThenBreaks) {
  // Data and EOF are both queued before the loop runs. The first read is
  // short and stops there, so the frames are delivered (and answered)
  // while the peer still counts as present; the EOF breaks the channel on
  // the next wake.
  server_.on_receive([this](BytesView payload) {
    got_.push_back(to_text(payload));
    server_.send(to_bytes("re:" + to_text(payload)));
  });
  Bytes stream = data_message("x");
  const Bytes y = data_message("y");
  stream.insert(stream.end(), y.begin(), y.end());
  write_raw(stream);
  ASSERT_EQ(::shutdown(fd_, SHUT_WR), 0);
  ASSERT_TRUE(pump_until([this] { return broke_; }));
  EXPECT_EQ(got_, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(read_data(), "re:x");
  EXPECT_EQ(read_data(), "re:y");
  EXPECT_TRUE(at_eof(fd_));
  EXPECT_EQ(bad_frames(), 0u);
}

TEST_F(SocketFrameTest, LargeSendsInOneDeliveryDoNotOverflowAReadingPeer) {
  // Three messages of one delivery add up to just past kMaxSendQueue.
  // Written at once, the first send's write would make room; a deferred
  // send must likewise write what the socket takes before judging the
  // queue, not break the channel.
  constexpr std::size_t kHeader = 4 + proto::kFrameHeaderSize;
  const std::size_t big = 11u << 20;
  const std::size_t last = kMaxSendQueue + 4096 - 3 * kHeader - 2 * big;
  const std::vector<Bytes> payloads = {Bytes(big, 0x11), Bytes(big, 0x22),
                                       Bytes(last, 0x33)};
  server_.on_receive([&](BytesView) {
    for (const Bytes& payload : payloads) server_.send(payload);
  });
  std::vector<Bytes> read;
  std::atomic<bool> reader_done{false};
  std::thread reader([&] {
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      auto message = read_message(fd_);
      if (!message) break;  // EOF: the channel broke
      read.push_back(std::move(*message));
    }
    reader_done = true;
  });
  write_raw(data_message("go"));
  const bool drained = pump_until([&] { return reader_done.load(); });
  if (!drained) ::shutdown(fd_, SHUT_RD);  // unblock the reader
  reader.join();
  ASSERT_TRUE(drained);
  EXPECT_EQ(counter("transport.socket.send_queue_overflows"), 0u);
  EXPECT_TRUE(server_.open());
  EXPECT_FALSE(broke_);
  ASSERT_EQ(read.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(read[i],
              proto::encode_frame(proto::FrameKind::channel_data, payloads[i]))
        << "message " << i;
  }
}

// --- accept side: a raw peer dials the endpoint --------------------------

TEST_F(SocketFrameTest, HandshakeInSingleByteWritesIsAccepted) {
  const int fd = dial(stream_path(transport_, host_));
  ASSERT_GE(fd, 0);
  const Bytes open = open_message(kPort);
  for (std::size_t i = 0; i < open.size(); ++i) {
    ASSERT_EQ(::send(fd, open.data() + i, 1, MSG_NOSIGNAL), 1);
    transport_.scheduler().run_for(sim::milliseconds(2));
    if (i + 1 < open.size()) {
      EXPECT_EQ(accepted_.size(), 1u) << "accepted after byte " << i + 1;
    }
  }
  ASSERT_TRUE(pump_until([this] { return accepted_.size() == 2; }));
  EXPECT_TRUE(accepted_.back().open());
  EXPECT_EQ(accepted_.back().remote_node(), kRawDevice);
  const auto reply = read_message(fd);
  ASSERT_TRUE(reply.has_value());
  auto frame = proto::decode_frame(*reply);
  ASSERT_TRUE(bool(frame));
  EXPECT_EQ(frame->kind, proto::FrameKind::channel_accept);
  EXPECT_EQ(bad_frames(), 0u);
  ::close(fd);
}

TEST_F(SocketFrameTest, OversizedHandshakeLengthClosesAndIsCounted) {
  const int fd = dial(stream_path(transport_, host_));
  ASSERT_GE(fd, 0);
  Bytes stream;
  append_u32(stream, kMaxStreamFrame + 1);
  stream.insert(stream.end(), 16, 0xAB);
  ASSERT_EQ(::send(fd, stream.data(), stream.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(stream.size()));
  ASSERT_TRUE(pump_until([fd] { return at_eof(fd); }));
  EXPECT_EQ(accepted_.size(), 1u);
  EXPECT_EQ(bad_frames(), 1u);
  ::close(fd);
}

TEST_F(SocketFrameTest, BadMagicHandshakeClosesAndIsCounted) {
  const int fd = dial(stream_path(transport_, host_));
  ASSERT_GE(fd, 0);
  Bytes open = open_message(kPort);
  open[4] ^= 0xFF;  // first magic byte, right after the length prefix
  ASSERT_EQ(::send(fd, open.data(), open.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(open.size()));
  ASSERT_TRUE(pump_until([fd] { return at_eof(fd); }));
  EXPECT_EQ(accepted_.size(), 1u);
  EXPECT_EQ(bad_frames(), 1u);
  ::close(fd);
}

TEST_F(SocketFrameTest, HandshakeDataAndHalfCloseAreAcceptedThenBreak) {
  const int fd = dial(stream_path(transport_, host_));
  ASSERT_GE(fd, 0);
  Bytes stream = open_message(kPort);
  const Bytes tail = data_message("tail");
  stream.insert(stream.end(), tail.begin(), tail.end());
  ASSERT_EQ(::send(fd, stream.data(), stream.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(stream.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  ASSERT_TRUE(pump_until([this] { return accepted_.size() == 2; }));
  const auto reply = read_message(fd);
  ASSERT_TRUE(reply.has_value());
  auto frame = proto::decode_frame(*reply);
  ASSERT_TRUE(bool(frame));
  EXPECT_EQ(frame->kind, proto::FrameKind::channel_accept);

  // The tail waits for a receive handler; the break comes after it.
  Channel late = accepted_.back();
  transport_.scheduler().run_for(sim::milliseconds(20));
  EXPECT_TRUE(late.open());
  std::vector<std::string> got;
  bool broke = false;
  late.on_receive([&](BytesView payload) {
    EXPECT_FALSE(broke);
    got.push_back(to_text(payload));
  });
  late.on_break([&] { broke = true; });
  ASSERT_TRUE(pump_until([&] { return broke; }));
  EXPECT_EQ(got, std::vector<std::string>{"tail"});
  EXPECT_FALSE(late.open());
  EXPECT_EQ(bad_frames(), 0u);
  ::close(fd);
}

TEST_F(SocketFrameTest, UnboundPortGetsChannelRejectCarryingConnectFailed) {
  const int fd = dial(stream_path(transport_, host_));
  ASSERT_GE(fd, 0);
  const Bytes open = open_message(kPort + 1);
  ASSERT_EQ(::send(fd, open.data(), open.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(open.size()));
  ASSERT_TRUE(pump_until([fd] {
    std::uint8_t peek[16];
    return ::recv(fd, peek, sizeof(peek), MSG_PEEK | MSG_DONTWAIT) > 0;
  }));
  transport_.scheduler().run_for(sim::milliseconds(20));
  const auto reply = read_message(fd);
  ASSERT_TRUE(reply.has_value());
  auto frame = proto::decode_frame(*reply);
  ASSERT_TRUE(bool(frame));
  EXPECT_EQ(frame->kind, proto::FrameKind::channel_reject);
  ASSERT_EQ(frame->payload.size(), 1u);
  EXPECT_EQ(frame->payload[0], static_cast<std::uint8_t>(Errc::connect_failed));
  EXPECT_TRUE(at_eof(fd));  // rejected, then closed
  EXPECT_EQ(accepted_.size(), 1u);
  EXPECT_EQ(bad_frames(), 0u);
  ::close(fd);
}

TEST(SocketHandshakeTimeoutTest, SilentPeerIsDroppedAtTheOpenTimeout) {
  SocketTransport transport(fast_clock());
  const DeviceId host = transport.add_device("host", nullptr);
  std::size_t accepts = 0;
  transport.add_endpoint(host, net::bluetooth_2_0())
      .listen(kPort, [&](Channel) { ++accepts; });
  Scheduler& scheduler = transport.scheduler();
  const std::size_t fds_before = open_fd_count();
  const int fd = dial(stream_path(transport, host));
  ASSERT_GE(fd, 0);
  const sim::Time dialled = scheduler.now();
  // The endpoint accepts (raw fd + accepted fd), then drops the silent
  // stream at the timeout.
  EXPECT_TRUE(pump(scheduler, sim::seconds(5),
                   [&] { return open_fd_count() == fds_before + 2; }));
  ASSERT_TRUE(pump(scheduler, sim::seconds(60), [fd] { return at_eof(fd); }));
  EXPECT_GE(scheduler.now() - dialled, sim::seconds(10));
  EXPECT_EQ(open_fd_count(), fds_before + 1);  // only the raw peer's own
  EXPECT_EQ(accepts, 0u);
  EXPECT_EQ(transport.registry().counter("transport.bad_frames").value(), 0u);
  ::close(fd);
}

// --- connect side: the endpoint dials a raw listener ----------------------

TEST_F(SocketFrameTest, ConnectAcceptsFragmentedChannelAccept) {
  const int fd = connect_to_raw();
  ASSERT_GE(fd, 0);
  Bytes body;
  append_u32(body, kRawDevice);
  const Bytes accept = stream_message(proto::FrameKind::channel_accept, body);
  for (std::size_t i = 0; i < accept.size(); ++i) {
    ASSERT_EQ(::send(fd, accept.data() + i, 1, MSG_NOSIGNAL), 1);
    transport_.scheduler().run_for(sim::milliseconds(2));
    if (i + 1 < accept.size()) {
      EXPECT_FALSE(connected_.has_value()) << "settled after byte " << i + 1;
    }
  }
  ASSERT_TRUE(pump_until([this] { return connected_.has_value(); }));
  ASSERT_TRUE(bool(*connected_)) << connected_->error().to_string();
  Channel channel = connected_->value();
  EXPECT_TRUE(channel.open());
  EXPECT_EQ(channel.remote_node(), kRawDevice);
  EXPECT_EQ(
      transport_.registry().counter("transport.channels_opened").value(), 1u);
  EXPECT_EQ(bad_frames(), 0u);

  // The channel is ready for data in both directions.
  channel.send(to_bytes("ping"));
  const auto sent = read_message(fd);
  ASSERT_TRUE(sent.has_value());
  EXPECT_EQ(*sent,
            proto::encode_frame(proto::FrameKind::channel_data,
                                to_bytes("ping")));
  channel.close();
  ::close(fd);
}

TEST_F(SocketFrameTest, ConnectDeliversDataCoalescedBehindChannelAccept) {
  const int fd = connect_to_raw();
  ASSERT_GE(fd, 0);
  Bytes body;
  append_u32(body, kRawDevice);
  Bytes stream = stream_message(proto::FrameKind::channel_accept, body);
  for (const char* text : {"hello", "world"}) {
    const Bytes message = data_message(text);
    stream.insert(stream.end(), message.begin(), message.end());
  }
  ASSERT_EQ(::send(fd, stream.data(), stream.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(stream.size()));
  ASSERT_TRUE(pump_until([this] { return connected_.has_value(); }));
  ASSERT_TRUE(bool(*connected_)) << connected_->error().to_string();
  Channel channel = connected_->value();
  std::vector<std::string> got;
  channel.on_receive([&](BytesView payload) { got.push_back(to_text(payload)); });
  ASSERT_TRUE(pump_until([&] { return got.size() == 2; }));
  EXPECT_EQ(got, (std::vector<std::string>{"hello", "world"}));
  EXPECT_EQ(bad_frames(), 0u);
  channel.close();
  ::close(fd);
}

TEST_F(SocketFrameTest, ConnectRejectThenCloseReportsTheSentErrc) {
  const int fd = connect_to_raw();
  ASSERT_GE(fd, 0);
  const auto reason = static_cast<std::uint8_t>(Errc::radio_busy);
  const Bytes reject = stream_message(proto::FrameKind::channel_reject,
                                      BytesView(&reason, 1));
  ASSERT_EQ(::send(fd, reject.data(), reject.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(reject.size()));
  ::close(fd);
  ASSERT_TRUE(pump_until([this] { return connected_.has_value(); }));
  ASSERT_FALSE(bool(*connected_));
  EXPECT_EQ(connected_->error().code, Errc::radio_busy);
  EXPECT_EQ(transport_.open_channel_count(), 1u);  // the fixture's channel
  EXPECT_EQ(bad_frames(), 0u);
}

TEST_F(SocketFrameTest, ConnectOversizedReplyIsProtocolErrorAndCounted) {
  const int fd = connect_to_raw();
  ASSERT_GE(fd, 0);
  Bytes stream;
  append_u32(stream, kMaxStreamFrame + 1);
  stream.insert(stream.end(), 16, 0xAB);
  ASSERT_EQ(::send(fd, stream.data(), stream.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(stream.size()));
  ASSERT_TRUE(pump_until([this] { return connected_.has_value(); }));
  ASSERT_FALSE(bool(*connected_));
  EXPECT_EQ(connected_->error().code, Errc::protocol_error);
  EXPECT_EQ(bad_frames(), 1u);
  EXPECT_TRUE(pump_until([fd] { return at_eof(fd); }));
  ::close(fd);
}

TEST(SocketHandshakeTimeoutTest, ConnectToSilentListenerTimesOut) {
  std::optional<Result<Channel>> connected;  // outlives the transport
  SocketTransport transport(fast_clock());
  const DeviceId host = transport.add_device("host", nullptr);
  Endpoint& endpoint = transport.add_endpoint(host, net::bluetooth_2_0());
  const std::string path = stream_path(transport, kRawDevice);
  const int listen_fd = listen_raw(path);
  ASSERT_GE(listen_fd, 0);
  Scheduler& scheduler = transport.scheduler();
  const sim::Time started = scheduler.now();
  endpoint.connect(kRawDevice, kPort,
                   [&](Result<Channel> r) { connected = std::move(r); });
  const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(read_message(fd).has_value());  // channel_open; never answered
  ASSERT_TRUE(
      pump(scheduler, sim::seconds(60), [&] { return connected.has_value(); }));
  ASSERT_FALSE(bool(*connected));
  EXPECT_EQ(connected->error().code, Errc::timeout);
  EXPECT_GE(scheduler.now() - started,
            net::bluetooth_2_0().connect_latency + sim::seconds(10));
  EXPECT_TRUE(at_eof(fd));
  EXPECT_EQ(transport.open_channel_count(), 0u);
  ::close(fd);
  ::close(listen_fd);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace ph::transport
