#include "net/link.hpp"

#include "net/medium.hpp"

namespace ph::net::detail {

bool LinkEnd::chan_open() const { return state_->open && !state_->closing; }

void LinkEnd::chan_send(BytesView payload) {
  if (const auto* m = state_->metrics_for(self_)) {
    m->channel_messages->inc();
    m->channel_bytes->inc(payload.size());
  }
  if (!chan_open()) return;
  state_->medium->link_send(state_, self_, payload);
}

double LinkEnd::chan_signal() const {
  if (!chan_open()) return 0.0;
  return state_->medium->signal(state_->a, state_->b, state_->profile);
}

void LinkEnd::chan_close() {
  if (!chan_open()) return;
  state_->medium->link_close(state_, self_);
}

}  // namespace ph::net::detail
