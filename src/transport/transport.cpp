#include "transport/transport.hpp"

namespace ph::transport {

TransportMetrics register_transport_metrics(obs::Registry& registry) {
  TransportMetrics m;
  m.datagrams_sent = &registry.counter("transport.datagrams_sent");
  m.datagrams_received = &registry.counter("transport.datagrams_received");
  m.datagram_bytes = &registry.counter("transport.datagram_bytes");
  m.channels_opened = &registry.counter("transport.channels_opened");
  m.channels_accepted = &registry.counter("transport.channels_accepted");
  m.channels_broken = &registry.counter("transport.channels_broken");
  m.channel_messages = &registry.counter("transport.channel_messages");
  m.channel_bytes = &registry.counter("transport.channel_bytes");
  m.bad_frames = &registry.counter("transport.bad_frames");
  m.handshake_us = &registry.histogram("transport.handshake_us");
  m.channel_rtt_us = &registry.histogram("transport.channel_rtt_us");
  return m;
}

Result<void> Transport::enable_ops_server() {
  return Error{Errc::not_supported,
               std::string(name()) + " transport has no ops server"};
}

}  // namespace ph::transport
