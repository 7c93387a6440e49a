// Internal session machinery behind peerhood::Connection.
// Private to ph_peerhood; applications include peerhood/connection.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "obs/trace.hpp"
#include "peerhood/connection.hpp"
#include "peerhood/daemon.hpp"
#include "peerhood/types.hpp"
#include "transport/transport.hpp"
#include "util/bytes.hpp"
#include "util/callback_slot.hpp"

namespace ph::peerhood::detail {

/// Session wire-message types (one byte on the wire).
enum class SessionOp : std::uint8_t {
  hello = 1,       ///< opens a new session (client -> server)
  resume = 2,      ///< reattaches after a break; seq = client's last delivered
  resume_ack = 3,  ///< server accepts resume; seq = server's last delivered
  data = 4,
  ack = 5,         ///< cumulative acknowledgement
  close = 6,       ///< graceful end
};

/// Session frame layout: op u8, session u64, seq u32, trace u64, then the
/// payload as a u32-length-prefixed byte string.
inline constexpr std::size_t kSessionHeaderSize = 25;

/// One session frame. `payload` is a view: when encoding, of the caller's
/// bytes; when decoded, of the received buffer, valid only while the
/// channel's receive handler runs.
struct SessionWire {
  SessionOp op = SessionOp::data;
  std::uint64_t session = 0;
  std::uint32_t seq = 0;
  /// Trace context captured when the payload was first sent; retransmits
  /// carry the original so delivery keeps its causal tie after handover.
  std::uint64_t trace = 0;
  BytesView payload;
};

/// The whole frame, header plus payload, into `out` (replacing its
/// contents); allocates only when `out` lacks the capacity.
void encode(const SessionWire& wire, Bytes& out);
Result<SessionWire> decode_session_wire(BytesView data);

struct SessionState : std::enable_shared_from_this<SessionState> {
  Daemon* daemon = nullptr;  // local daemon: plugins, scheduler access
  std::uint64_t id = 0;
  DeviceId self = net::kInvalidNode;
  DeviceId peer = net::kInvalidNode;
  net::Port service_port = 0;
  bool initiator = false;  // only the initiator drives resume/handover
  ConnectOptions options;

  /// The channel currently carrying the session (may be dead).
  transport::Channel channel;
  bool established = false;
  bool closed = false;
  bool resuming = false;
  int handovers = 0;
  /// Failed sweeps in the current recovery; drives the retry backoff.
  int resume_attempts = 0;

  // Reliability.
  std::uint32_t next_seq = 1;       // next outgoing sequence number
  std::uint32_t last_delivered = 0; // highest in-order seq handed to the app
  /// A sent data frame kept, exactly as sent, until the peer acknowledges
  /// it; a retransmit resends the same bytes (its header carries the
  /// sender context of the first transmission).
  struct Outstanding {
    std::uint32_t seq = 0;
    Bytes frame;
  };
  std::vector<Outstanding> unacked;  // ascending seq
  /// The buffer of the newest acknowledged frame, reused by the next
  /// send_payload so a warm session sends without allocating.
  Bytes spare_frame;
  struct Arrival {
    Bytes payload;
    std::uint64_t trace = 0;  ///< remote sender's span, from the wire
  };
  /// Out-of-order arrivals only: an in-order frame is delivered straight
  /// from the received buffer.
  std::map<std::uint32_t, Arrival> reorder;

  /// Called in place (see util::CallbackSlot): the handler may close the
  /// session, which clears it, while it runs.
  util::CallbackSlot<void(BytesView)> on_message;
  std::function<void(const Error&)> on_close;
  /// Server-side hook: endpoint bookkeeping removes the session on end.
  std::function<void(std::uint64_t)> on_ended;

  sim::EventId monitor_timer = 0;
  sim::EventId resume_timer = 0;
  sim::EventId server_wait_timer = 0;
  /// Open while the session hunts for a replacement channel.
  obs::SpanId resume_span = 0;

  transport::Scheduler& scheduler() { return daemon->scheduler(); }
  obs::Trace& journal();

  // --- lifecycle ---------------------------------------------------------
  /// Installs receive/break handlers on `new_channel` and makes it current.
  void attach_channel(transport::Channel new_channel);
  void handle_wire(const SessionWire& wire);
  void send_payload(BytesView payload);
  /// Sends a payload-less control frame (hello, resume, acks, close),
  /// encoded on the stack.
  void send_control(SessionOp op, std::uint32_t seq = 0);
  /// Hands one in-order payload to on_message under the sender's span.
  void deliver(BytesView payload, std::uint64_t trace);
  void graceful_close();
  void fail(Error error);
  void finish(const Error& reason);

  // --- seamless connectivity ----------------------------------------------
  void on_channel_break();
  void start_resume();
  void resume_sweep();
  /// Schedules the next sweep after a failure, backing off exponentially
  /// (capped + jittered) across consecutive failures.
  void schedule_resume_retry();
  void arm_monitor();
  void check_signal();
  /// Drops the unacked frames up to `seq`, keeping the newest one's buffer
  /// as the spare.
  void release_through(std::uint32_t seq);
  void retransmit_from(std::uint32_t peer_last_delivered);
  void arm_server_wait();
};

}  // namespace ph::peerhood::detail
