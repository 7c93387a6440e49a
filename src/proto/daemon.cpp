#include "proto/daemon.hpp"

#include "proto/codec.hpp"

namespace ph::proto {

std::string_view to_string(DaemonOp op) noexcept {
  switch (op) {
    case DaemonOp::service_query: return "SERVICE_QUERY";
    case DaemonOp::service_reply: return "SERVICE_REPLY";
    case DaemonOp::ping: return "PING";
    case DaemonOp::pong: return "PONG";
  }
  return "?";
}

Bytes encode(const DaemonMessage& message) {
  return encode_exact([&message](auto& w) {
    w.u8(static_cast<std::uint8_t>(message.op));
    w.u32(message.token);
    w.u64(message.trace_parent);
    w.str(message.device_name);
    w.u32(static_cast<std::uint32_t>(message.services.size()));
    for (const auto& service : message.services) {
      w.str(service.name);
      w.u16(service.port);
      w.u32(static_cast<std::uint32_t>(service.attributes.size()));
      for (const auto& [key, value] : service.attributes) {
        w.str(key);
        w.str(value);
      }
    }
  });
}

Result<DaemonMessage> decode_daemon_message(BytesView data) {
  Reader r(data);
  DaemonMessage m;
  auto op = r.u8();
  if (!op) return op.error();
  if (*op < 1 || *op > static_cast<std::uint8_t>(DaemonOp::pong)) {
    return Error{Errc::protocol_error, "unknown daemon op"};
  }
  m.op = static_cast<DaemonOp>(*op);
  auto token = r.u32();
  if (!token) return token.error();
  m.token = *token;
  auto trace_parent = r.u64();
  if (!trace_parent) return trace_parent.error();
  m.trace_parent = *trace_parent;
  auto name = r.str();
  if (!name) return name.error();
  m.device_name = std::move(*name);
  auto n_services = r.u32();
  if (!n_services) return n_services.error();
  if (*n_services > r.remaining() / 4) {
    return Error{Errc::protocol_error, "implausible service count"};
  }
  for (std::uint32_t i = 0; i < *n_services; ++i) {
    ServiceInfoData service;
    auto service_name = r.str();
    if (!service_name) return service_name.error();
    service.name = std::move(*service_name);
    auto port = r.u16();
    if (!port) return port.error();
    service.port = *port;
    auto n_attrs = r.u32();
    if (!n_attrs) return n_attrs.error();
    if (*n_attrs > r.remaining() / 8) {
      return Error{Errc::protocol_error, "implausible attribute count"};
    }
    for (std::uint32_t j = 0; j < *n_attrs; ++j) {
      auto key = r.str();
      if (!key) return key.error();
      auto value = r.str();
      if (!value) return value.error();
      service.attributes.emplace(std::move(*key), std::move(*value));
    }
    m.services.push_back(std::move(service));
  }
  return m;
}

}  // namespace ph::proto
