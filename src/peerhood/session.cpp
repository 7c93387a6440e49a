#include <algorithm>
#include <array>
#include <iterator>

#include "peerhood/session_state.hpp"
#include "sim/backoff.hpp"
#include "proto/codec.hpp"
#include "util/log.hpp"
#include "obs/prof.hpp"

namespace ph::peerhood::detail {

namespace {
void put_header(std::uint8_t* out, const SessionWire& wire) {
  out[0] = static_cast<std::uint8_t>(wire.op);
  proto::store_le(out + 1, wire.session);
  proto::store_le(out + 9, wire.seq);
  proto::store_le(out + 13, wire.trace);
  proto::store_le(out + 21, static_cast<std::uint32_t>(wire.payload.size()));
}
}  // namespace

void encode(const SessionWire& wire, Bytes& out) {
  out.clear();
  out.reserve(kSessionHeaderSize + wire.payload.size());
  out.resize(kSessionHeaderSize);
  put_header(out.data(), wire);
  out.insert(out.end(), wire.payload.begin(), wire.payload.end());
}

Result<SessionWire> decode_session_wire(BytesView data) {
  proto::Reader r(data);
  SessionWire wire;
  auto op = r.u8();
  if (!op) return op.error();
  if (*op < 1 || *op > static_cast<std::uint8_t>(SessionOp::close)) {
    return Error{Errc::protocol_error, "unknown session op"};
  }
  wire.op = static_cast<SessionOp>(*op);
  auto session = r.u64();
  if (!session) return session.error();
  wire.session = *session;
  auto seq = r.u32();
  if (!seq) return seq.error();
  wire.seq = *seq;
  auto trace = r.u64();
  if (!trace) return trace.error();
  wire.trace = *trace;
  auto payload = r.bytes_view();
  if (!payload) return payload.error();
  wire.payload = *payload;
  return wire;
}

void SessionState::attach_channel(transport::Channel new_channel) {
  channel = new_channel;
  auto weak = weak_from_this();
  // Handlers capture the channel they belong to: after a handover, events
  // from the superseded channel must not disturb the session.
  channel.on_receive([weak, new_channel](BytesView data) {
    auto self = weak.lock();
    if (!self || self->closed || !(self->channel == new_channel)) return;
    auto wire = decode_session_wire(data);
    if (!wire) {
      PH_LOG(warn, "conn") << "malformed session frame: "
                           << wire.error().to_string();
      return;
    }
    self->handle_wire(*wire);
  });
  channel.on_break([weak, new_channel] {
    auto self = weak.lock();
    if (!self || self->closed || !(self->channel == new_channel)) return;
    self->on_channel_break();
  });
}

void SessionState::send_control(SessionOp op, std::uint32_t seq) {
  if (!channel.open()) return;
  SessionWire wire;
  wire.op = op;
  wire.session = id;
  wire.seq = seq;
  std::array<std::uint8_t, kSessionHeaderSize> frame;
  put_header(frame.data(), wire);
  channel.send(frame);
}

obs::Trace& SessionState::journal() { return daemon->transport().trace(); }

void SessionState::send_payload(BytesView payload) {
  if (closed) return;
  SessionWire wire;
  wire.op = SessionOp::data;
  wire.session = id;
  wire.seq = next_seq++;
  // The innermost open span (the RPC, the task) rides the wire so the
  // peer parents its handling under the remote sender — including when
  // the frame is retransmitted over a different channel after handover.
  wire.trace = journal().current_context();
  wire.payload = payload;
  Bytes frame = std::move(spare_frame);  // leaves the spare empty
  encode(wire, frame);
  unacked.push_back({wire.seq, std::move(frame)});
  // Dropped when the channel is down; resume retransmits.
  if (channel.open()) channel.send(unacked.back().frame);
}

void SessionState::deliver(BytesView payload, std::uint64_t trace) {
  if (!on_message) return;
  // Deliver under the remote sender's span from the wire (a reordered
  // frame would otherwise inherit the wrong flight span from the channel's
  // receive path).
  obs::Trace::Scope causal(journal(), trace);
  on_message(payload);
}

void SessionState::handle_wire(const SessionWire& wire) {
  switch (wire.op) {
    case SessionOp::hello:
      // Handled at accept time by the library; a duplicate here is noise.
      break;
    case SessionOp::resume:
      // Server side: the library reattached the channel already;
      // acknowledge with our delivery point and retransmit what the client
      // lacks.
      if (!initiator) {
        send_control(SessionOp::resume_ack, last_delivered);
        retransmit_from(wire.seq);
      }
      break;
    case SessionOp::resume_ack:
      if (initiator && resuming) {
        resuming = false;
        established = true;
        ++handovers;
        resume_attempts = 0;  // recovered: next break backs off from scratch
        scheduler().cancel(resume_timer);
        journal().end_span(resume_span, scheduler().now());
        resume_span = 0;
        journal().add_event("peerhood.session.handover", scheduler().now(),
                            self,
                            net::to_string(channel.technology()));
        retransmit_from(wire.seq);
        arm_monitor();
        PH_LOG(info, "conn") << "session " << id << " resumed over "
                             << net::to_string(channel.technology());
      }
      break;
    case SessionOp::data: {
      // Acknowledge cumulatively, deliver in order exactly once. The next
      // expected frame goes to the handler straight from the received
      // buffer; only frames that arrive early are copied and held back.
      if (wire.seq == last_delivered + 1) {
        ++last_delivered;
        deliver(wire.payload, wire.trace);
        if (closed) return;  // handler closed the session
        while (!reorder.empty() &&
               reorder.begin()->first == last_delivered + 1) {
          Arrival arrival = std::move(reorder.begin()->second);
          reorder.erase(reorder.begin());
          ++last_delivered;
          deliver(arrival.payload, arrival.trace);
          if (closed) return;
        }
      } else if (wire.seq > last_delivered) {
        reorder.try_emplace(wire.seq, Arrival{Bytes(wire.payload.begin(),
                                                    wire.payload.end()),
                                              wire.trace});
      }
      send_control(SessionOp::ack, last_delivered);
      break;
    }
    case SessionOp::ack:
      release_through(wire.seq);
      break;
    case SessionOp::close:
      finish(Error{Errc::ok});
      break;
  }
}

void SessionState::release_through(std::uint32_t seq) {
  auto acked = std::find_if(
      unacked.begin(), unacked.end(),
      [seq](const Outstanding& entry) { return entry.seq > seq; });
  if (acked != unacked.begin()) {
    spare_frame = std::move(std::prev(acked)->frame);
  }
  unacked.erase(unacked.begin(), acked);
}

void SessionState::retransmit_from(std::uint32_t peer_last_delivered) {
  release_through(peer_last_delivered);
  for (const auto& entry : unacked) {
    if (channel.open()) channel.send(entry.frame);
  }
}

void SessionState::graceful_close() {
  if (closed) return;
  send_control(SessionOp::close);
  closed = true;
  journal().end_span(resume_span, scheduler().now());
  resume_span = 0;
  scheduler().cancel(monitor_timer);
  scheduler().cancel(resume_timer);
  scheduler().cancel(server_wait_timer);
  if (channel.valid()) channel.close();
  if (on_ended) on_ended(id);
  // Handlers may capture Connection handles that own this state; release
  // them so ended sessions cannot form reference cycles.
  on_message = nullptr;
  on_close = nullptr;
  on_ended = nullptr;
}

void SessionState::fail(Error error) { finish(error); }

void SessionState::finish(const Error& reason) {
  if (closed) return;
  closed = true;
  journal().end_span(resume_span, scheduler().now());
  resume_span = 0;
  scheduler().cancel(monitor_timer);
  scheduler().cancel(resume_timer);
  scheduler().cancel(server_wait_timer);
  if (channel.valid() && channel.open()) channel.close();
  if (on_ended) on_ended(id);
  if (on_close) {
    // Moved out first: the handler may reset the Connection, and the slot
    // is cleared below anyway.
    auto handler = std::move(on_close);
    on_close = nullptr;
    handler(reason);
  }
  on_message = nullptr;
  on_close = nullptr;
  on_ended = nullptr;
}

void SessionState::on_channel_break() {
  if (closed) return;
  established = false;
  scheduler().cancel(monitor_timer);
  if (!options.seamless) {
    finish(Error{Errc::connection_lost, "channel broke, seamless mode off"});
    return;
  }
  if (initiator) {
    if (resuming) {
      // A resume attempt's own channel died (peer refused, moved, or the
      // radio flapped): sweep again after backoff; the deadline timer is
      // still armed from the original break.
      schedule_resume_retry();
      return;
    }
    start_resume();
  } else {
    // Server side: wait for the initiator to resume; give up after the
    // same deadline the client uses.
    arm_server_wait();
  }
}

void SessionState::arm_server_wait() {
  const obs::prof::TagScope tag(obs::prof::Center::peerhood_session);
  auto weak = weak_from_this();
  scheduler().cancel(server_wait_timer);
  server_wait_timer =
      scheduler().schedule(options.resume_deadline, [weak] {
        auto self = weak.lock();
        if (!self || self->closed || self->established) return;
        self->finish(Error{Errc::connection_lost, "peer never resumed"});
      });
}

void SessionState::schedule_resume_retry() {
  sim::Backoff backoff;
  backoff.base = options.resume_retry_interval;
  backoff.multiplier = options.resume_backoff;
  backoff.cap = std::max(options.resume_retry_cap, options.resume_retry_interval);
  backoff.jitter = options.resume_jitter;
  const sim::Duration delay =
      backoff.delay(resume_attempts++, daemon->jitter_rng());
  // The idle window is known now — record it as a closed child of the
  // resume span so attribution can separate backoff from reconnecting.
  const obs::SpanId wait = journal().begin_span_under(
      resume_span, "peerhood.backoff.wait", scheduler().now(), self, "backoff");
  journal().end_span(wait, scheduler().now() + delay);
  auto weak = weak_from_this();
  const obs::prof::TagScope tag(obs::prof::Center::peerhood_session);
  scheduler().schedule(delay, [weak] {
    auto self = weak.lock();
    if (self) self->resume_sweep();
  });
}

void SessionState::start_resume() {
  if (resuming) return;
  resuming = true;
  resume_attempts = 0;
  resume_span = journal().begin_span("peerhood.session.resume",
                                     scheduler().now(), self, "resume");
  PH_LOG(info, "conn") << "session " << id
                       << " lost its channel; hunting for an alternative";
  auto weak = weak_from_this();
  const obs::prof::TagScope tag(obs::prof::Center::peerhood_session);
  scheduler().cancel(resume_timer);
  resume_timer = scheduler().schedule(options.resume_deadline, [weak] {
    auto self = weak.lock();
    if (!self || self->closed || !self->resuming) return;
    self->resuming = false;
    self->finish(Error{Errc::connection_lost, "resume deadline exceeded"});
  });
  resume_sweep();
}

void SessionState::resume_sweep() {
  if (closed || !resuming) return;
  // Rank this device's radios by signal towards the peer, preferring free
  // technologies on ties — "the best possible alternative" (Table 3).
  struct Candidate {
    NetworkPlugin* plugin;
    double signal;
  };
  std::vector<Candidate> candidates;
  for (const auto& plugin : daemon->plugins()) {
    if (options.force_technology &&
        plugin->technology() != *options.force_technology) {
      continue;
    }
    const double s = plugin->endpoint().signal_to(peer);
    if (s > 0.0) candidates.push_back({plugin.get(), s});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.signal != b.signal) return a.signal > b.signal;
              return a.plugin->preference() < b.plugin->preference();
            });
  if (candidates.empty()) {
    // Nothing reachable right now; back off and retry (the peer may walk
    // back into range — or the outage end — before the deadline).
    schedule_resume_retry();
    return;
  }
  auto weak = weak_from_this();
  NetworkPlugin* plugin = candidates.front().plugin;
  // Connect attempts (net.link.open) belong under the resume span.
  obs::Trace::Scope causal(journal(), resume_span);
  plugin->endpoint().connect(
      peer, service_port, [weak](Result<transport::Channel> result) {
        auto self = weak.lock();
        if (!self || self->closed || !self->resuming) {
          if (result) result->close();
          return;
        }
        if (!result) {
          self->schedule_resume_retry();
          return;
        }
        self->attach_channel(*result);
        obs::Trace::Scope causal(self->journal(), self->resume_span);
        self->send_control(SessionOp::resume, self->last_delivered);
        // established flips when resume_ack arrives.
      });
}

void SessionState::arm_monitor() {
  if (!initiator || options.monitor_interval == 0 || !options.seamless) return;
  auto weak = weak_from_this();
  const obs::prof::TagScope tag(obs::prof::Center::peerhood_session);
  scheduler().cancel(monitor_timer);
  monitor_timer = scheduler().schedule(options.monitor_interval, [weak] {
    auto self = weak.lock();
    if (!self || self->closed) return;
    self->check_signal();
  });
}

void SessionState::check_signal() {
  if (closed || resuming || !established) return;
  const double current = channel.signal();
  if (current < options.weak_signal_threshold) {
    // Is any other radio meaningfully better right now?
    for (const auto& plugin : daemon->plugins()) {
      if (plugin->technology() == channel.technology()) continue;
      if (options.force_technology) break;  // pinned: no proactive handover
      if (plugin->endpoint().signal_to(peer) > current + 0.1) {
        PH_LOG(info, "conn")
            << "session " << id << " signal weak ("
            << current << ") on " << net::to_string(channel.technology())
            << "; proactive handover";
        // Drop the weak channel and reuse the resume machinery.
        transport::Channel old = channel;
        established = false;
        start_resume();
        old.close();
        return;
      }
    }
  }
  arm_monitor();
}

}  // namespace ph::peerhood::detail
