// Simulated links — a connection-oriented, ordered, reliable byte-message
// channel between two adapters of the same technology (the simulator's
// analogue of an L2CAP channel / TCP connection). Private to the ph_net
// implementation; applications hold the transport::Channel handles that
// Adapter::listen/connect hand out.
//
// Reliability is per-technology: frame loss turns into retransmission delay,
// matching the thesis' description of the BTPlugin ("offers ordered and
// reliable data delivery"). What a link cannot survive is the peer moving
// out of radio range — then it *breaks* and both sides get their break
// handler invoked. Seamless connectivity across technologies is the
// PeerHood layer's job, built on top of these per-technology links.
#pragma once

#include <functional>
#include <memory>

#include "net/tech.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"
#include "transport/transport.hpp"
#include "util/bytes.hpp"
#include "util/callback_slot.hpp"

namespace ph::net {
class Medium;
}

namespace ph::net::detail {

struct LinkState;

/// One side of a link: the simulated substrate's channel state. Both ends
/// live inside their LinkState, and a transport::Channel over an end holds
/// the LinkState through an aliasing shared_ptr, so opening a link is one
/// allocation. Copies of the Channel refer to the same end.
class LinkEnd final : public transport::detail::ChannelState {
 public:
  LinkEnd(LinkState& link, bool initiator)
      : link_(link), initiator_(initiator) {}

  bool chan_open() const override;
  NodeId chan_remote() const override;
  Technology chan_technology() const override;
  void chan_on_receive(std::function<void(BytesView)> handler) override;
  void chan_on_break(std::function<void()> handler) override;
  /// Delivery time accounts for bandwidth serialization, propagation
  /// latency and (randomized) retransmissions.
  void chan_send(BytesView payload) override;
  /// Gateway-routed technologies always report 1 while powered.
  double chan_signal() const override;
  void chan_close() override;

 private:
  NodeId self() const;

  LinkState& link_;
  bool initiator_;
};

/// State shared by both ends of one link.
struct LinkState : std::enable_shared_from_this<LinkState> {
  Medium* medium = nullptr;
  TechProfile profile;  // initiator's profile governs the link's physics
  NodeId a = kInvalidNode;  // initiator
  NodeId b = kInvalidNode;  // acceptor
  Port port = 0;
  bool open = false;
  /// Graceful close in progress: new sends are rejected, queued messages
  /// still drain to the peer before the link actually dies.
  bool closing = false;

  /// Receive handler per side, called in place (see util::CallbackSlot).
  util::CallbackSlot<void(BytesView)> rx_a, rx_b;
  std::function<void()> brk_a, brk_b;  // break handler per side
  /// Each side's `transport.*` handles; null for an uncounted adapter.
  const transport::TransportMetrics* metrics_a = nullptr;
  const transport::TransportMetrics* metrics_b = nullptr;

  sim::Time busy_a_to_b = 0;  // serialization horizon, a->b direction
  sim::Time busy_b_to_a = 0;

  LinkEnd end_a{*this, true};
  LinkEnd end_b{*this, false};

  util::CallbackSlot<void(BytesView)>& rx_for(NodeId side) {
    return side == a ? rx_a : rx_b;
  }
  std::function<void()>& brk_for(NodeId side) { return side == a ? brk_a : brk_b; }
  const transport::TransportMetrics* metrics_for(NodeId side) const {
    return side == a ? metrics_a : metrics_b;
  }
  NodeId peer_of(NodeId side) const { return side == a ? b : a; }
  /// A channel handle over `side`'s end; it co-owns this state.
  transport::Channel channel_for(NodeId side) {
    return transport::Channel(std::shared_ptr<transport::detail::ChannelState>(
        shared_from_this(), side == a ? &end_a : &end_b));
  }
};

inline NodeId LinkEnd::self() const { return initiator_ ? link_.a : link_.b; }
inline NodeId LinkEnd::chan_remote() const { return link_.peer_of(self()); }
inline Technology LinkEnd::chan_technology() const {
  return link_.profile.tech;
}
inline void LinkEnd::chan_on_receive(std::function<void(BytesView)> handler) {
  link_.rx_for(self()) = std::move(handler);
}
inline void LinkEnd::chan_on_break(std::function<void()> handler) {
  link_.brk_for(self()) = std::move(handler);
}

}  // namespace ph::net::detail
