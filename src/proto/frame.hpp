// Versioned wire framing for real transport substrates.
//
// The simulated medium delivers typed, bounded messages, so the PeerHood
// wire formats (proto::DaemonMessage, the session wire) could ride it
// bare. A real socket hands the receiver raw bytes: every frame that
// crosses a socket therefore carries this explicit envelope —
//
//   offset  size  field
//   0       2     magic   0x5048 ("PH", little-endian)
//   2       1     version (kFrameVersion; receivers reject newer)
//   3       1     kind    (FrameKind)
//   4       ...   kind-specific payload
//
// — so both substrates parse *identically* above the envelope: the bytes
// handed to decode_daemon_message / decode_session_wire are byte-for-byte
// the same whether they crossed the simulated medium or a socket, and the
// version octet gates wire evolution between daemon builds that share a
// loopback directory. decode_frame rejects bad magic, future versions and
// unknown kinds as Errc::protocol_error, never UB.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace ph::proto {

inline constexpr std::uint16_t kFrameMagic = 0x5048;  // "PH"
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 4;

/// What a socket frame carries. Values are wire-stable; add new kinds at
/// the end and bump kFrameVersion when semantics change.
enum class FrameKind : std::uint8_t {
  datagram = 1,      ///< connectionless: u32 src, u16 dst port, payload
  channel_open = 2,  ///< stream handshake: u32 src, u16 dst port
  channel_accept = 3,///< stream handshake reply: u32 acceptor device
  channel_reject = 4,///< stream handshake reply: u8 errc ordinal
  channel_data = 5,  ///< one ordered channel message: payload
  channel_ping = 6,  ///< transport RTT probe: u64 sender wall-clock µs
  channel_pong = 7,  ///< probe reply: the ping's u64 echoed verbatim
};

std::string_view to_string(FrameKind kind) noexcept;

/// A decoded envelope; `payload` views into the caller's buffer.
struct FrameView {
  FrameKind kind = FrameKind::datagram;
  std::uint8_t version = kFrameVersion;
  BytesView payload;
};

/// Prepends the versioned header to `payload`.
Bytes encode_frame(FrameKind kind, BytesView payload);

/// Appends the same frame to `out`, in place.
void append_frame(Bytes& out, FrameKind kind, BytesView payload);

/// Validates magic/version/kind and returns the payload view.
Result<FrameView> decode_frame(BytesView data);

}  // namespace ph::proto
