#include "net/link.hpp"

#include "net/medium.hpp"

namespace ph::net::detail {

bool LinkEnd::chan_open() const { return link_.open && !link_.closing; }

void LinkEnd::chan_send(BytesView payload) {
  if (const auto* m = link_.metrics_for(self())) {
    m->channel_messages->inc();
    m->channel_bytes->inc(payload.size());
  }
  if (!chan_open()) return;
  link_.medium->link_send(link_, self(), payload);
}

double LinkEnd::chan_signal() const {
  if (!chan_open()) return 0.0;
  return link_.medium->signal(link_.a, link_.b, link_.profile);
}

void LinkEnd::chan_close() {
  if (!chan_open()) return;
  link_.medium->link_close(link_, self());
}

}  // namespace ph::net::detail
