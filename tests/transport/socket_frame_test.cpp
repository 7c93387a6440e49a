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
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
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
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    if (fd < 0) return -1;
    const std::string path = transport_.socket_dir() + "/d" +
                             std::to_string(host_) + ".t0.stream";
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    Bytes open_body;
    append_u32(open_body, kRawDevice);
    open_body.push_back(static_cast<std::uint8_t>(kPort & 0xFF));
    open_body.push_back(static_cast<std::uint8_t>(kPort >> 8));
    const Bytes open =
        stream_message(proto::FrameKind::channel_open, open_body);
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
    Scheduler& s = transport_.scheduler();
    const sim::Time deadline = s.now() + sim::seconds(5);
    while (s.now() < deadline && !pred()) {
      s.run_until(std::min(deadline, s.now() + sim::milliseconds(5)));
    }
    return pred();
  }

  std::uint64_t bad_frames() {
    return transport_.registry().counter("transport.bad_frames").value();
  }

  SocketTransport transport_;
  DeviceId host_ = 0;
  int fd_ = -1;
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

  const auto counter = [this](const char* name) {
    return transport_.registry().counter(name).value();
  };
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

}  // namespace
}  // namespace ph::transport
