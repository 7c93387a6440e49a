// SimTransport — the simulated-medium backend of ph::transport.
//
// The Medium's radios are the endpoints: add_endpoint creates a
// net::Adapter and endpoint() returns it, and the channels they hand out
// are the Medium's own link ends. The scheduler forwards to
// sim::Simulator. Nothing in between schedules events or draws from the
// RNG, so same-seed runs stay byte-identical (the chaos-determinism and
// trace byte-compare gates). The one thing this backend adds is the
// common `transport.*` metric family (register_transport_metrics): the
// adapters it hands out count into it, while radios created straight on
// the Medium stay uncounted. The counts are passive increments that touch
// neither the RNG nor the event queue.
//
// Several SimTransport instances may share one Medium (the
// Stack(net::Medium&, ...) constructor owns one per stack); they share the
// Medium's registry, trace, RNG and simulator, so which instance a call
// goes through is unobservable.
#pragma once

#include <memory>

#include "net/medium.hpp"
#include "transport/transport.hpp"

namespace ph::transport {

class SimTransport final : public Transport {
 public:
  explicit SimTransport(net::Medium& medium);
  ~SimTransport() override;

  const char* name() const override { return "sim"; }
  bool simulated() const override { return true; }

  Scheduler& scheduler() override;
  const Scheduler& scheduler() const override;
  obs::Registry& registry() override { return medium_.registry(); }
  obs::Trace& trace() override { return medium_.trace(); }
  sim::Rng& rng() override { return medium_.rng(); }

  DeviceId add_device(std::string name,
                      std::unique_ptr<sim::MobilityModel> mobility) override;
  Endpoint& add_endpoint(DeviceId device, net::TechProfile profile) override;
  Endpoint* endpoint(DeviceId device, net::Technology tech) override {
    return medium_.adapter(device, tech);
  }

  /// Sim-only test hook: the radio world beneath this transport, for code
  /// that genuinely needs medium internals (fault injectors, access
  /// points, spatial assertions). Not part of the Transport interface —
  /// substrate-agnostic layers must not reach for it.
  net::Medium& medium() noexcept { return medium_; }

 private:
  class SimScheduler;

  net::Medium& medium_;
  std::unique_ptr<SimScheduler> scheduler_;
  /// Common `transport.*` handles in the Medium's registry; adapters
  /// created through this transport count into them.
  TransportMetrics metrics_;
};

}  // namespace ph::transport
