#include "proto/frame.hpp"

#include "util/error.hpp"

namespace ph::proto {

std::string_view to_string(FrameKind kind) noexcept {
  switch (kind) {
    case FrameKind::datagram: return "datagram";
    case FrameKind::channel_open: return "channel_open";
    case FrameKind::channel_accept: return "channel_accept";
    case FrameKind::channel_reject: return "channel_reject";
    case FrameKind::channel_data: return "channel_data";
    case FrameKind::channel_ping: return "channel_ping";
    case FrameKind::channel_pong: return "channel_pong";
  }
  return "unknown";
}

Bytes encode_frame(FrameKind kind, BytesView payload) {
  Bytes out;
  out.reserve(kFrameHeaderSize + payload.size());
  append_frame(out, kind, payload);
  return out;
}

void append_frame(Bytes& out, FrameKind kind, BytesView payload) {
  const std::uint8_t header[kFrameHeaderSize] = {
      static_cast<std::uint8_t>(kFrameMagic & 0xFF),
      static_cast<std::uint8_t>(kFrameMagic >> 8), kFrameVersion,
      static_cast<std::uint8_t>(kind)};
  out.insert(out.end(), header, header + kFrameHeaderSize);
  out.insert(out.end(), payload.begin(), payload.end());
}

Result<FrameView> decode_frame(BytesView data) {
  if (data.size() < kFrameHeaderSize) {
    return Error{Errc::protocol_error, "frame shorter than header"};
  }
  const std::uint16_t magic = static_cast<std::uint16_t>(
      data[0] | (static_cast<std::uint16_t>(data[1]) << 8));
  if (magic != kFrameMagic) {
    return Error{Errc::protocol_error, "bad frame magic"};
  }
  const std::uint8_t version = data[2];
  if (version == 0 || version > kFrameVersion) {
    return Error{Errc::protocol_error,
                 "frame version " + std::to_string(version) +
                     " newer than supported " + std::to_string(kFrameVersion)};
  }
  const std::uint8_t kind = data[3];
  if (kind < static_cast<std::uint8_t>(FrameKind::datagram) ||
      kind > static_cast<std::uint8_t>(FrameKind::channel_pong)) {
    return Error{Errc::protocol_error, "unknown frame kind"};
  }
  FrameView view;
  view.kind = static_cast<FrameKind>(kind);
  view.version = version;
  view.payload = data.subspan(kFrameHeaderSize);
  return view;
}

}  // namespace ph::proto
