// Workload `rooms`: the Figure 11–17 social operations under load.
//
// 64 static rooms of 8 Bluetooth devices, rooms out of radio range of one
// another. Every member holds two of five topics, trusts their roommates
// and shares one 2 KiB file. Once every room has converged (each device
// sees its 7 roommates' community service), each device runs a closed loop
// with 0.5–1.5 s of seeded virtual think time, issuing operations against
// its own room: reads (~70%: online members, interest list, view profile,
// shared content, fetch content) and writes (~30%: profile comment, send
// message, interest add/remove).
//
// The window runs in blocks of 30 virtual seconds until both the wall
// budget and the deterministic prefix of 2 blocks are covered; virtual
// latencies come from that prefix, so they repeat exactly for one seed.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "community/app.hpp"
#include "community/server.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "sim_window.hpp"
#include "util/check.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ph;

const std::vector<std::string> kTopics = {"music", "sports", "films",
                                          "coffee", "code"};
constexpr std::size_t kFileBytes = 2048;

struct RoomsSize {
  std::size_t rooms = 64;
  std::size_t per_room = 8;
  /// One community peer-refresh period, so blocks carry comparable work.
  sim::Duration block = sim::seconds(30);
  std::size_t deterministic_blocks = 2;
  /// Closed loops run this long before the window opens.
  sim::Duration loop_warmup = sim::seconds(10);
};

enum class Op {
  online_members,
  interest_list,
  view_profile,
  shared_content,
  fetch_content,
  comment,
  message,
  interest_toggle,
};
constexpr int kOpKinds = 8;
const char* const kOpNames[kOpKinds] = {
    "online_members", "interest_list", "view_profile", "shared_content",
    "fetch_content",  "comment",       "message",      "interest_toggle"};

bool is_write(Op op) { return op >= Op::comment; }

/// Weights in percent: five reads of 14, three writes of 10.
Op pick_op(sim::Rng& rng) {
  const std::uint64_t roll = rng.uniform_int(0, 99);
  if (roll < 70) return static_cast<Op>(roll / 14);
  return static_cast<Op>(5 + (roll - 70) / 10);
}

/// One finished operation.
struct OpRecord {
  Op op;
  sim::Time virt_start;
  sim::Time virt_end;
  bool ok;
};

class Rooms {
 public:
  Rooms(const RoomsSize& size, std::uint64_t seed, RunResult& result,
        SpanJournal& journal)
      : size_(size),
        result_(result),
        journal_(journal),
        medium_(simulator_, sim::Rng(seed)),
        seed_(seed) {
    sim::Rng placement(seed * 31 + 7);
    // Discovery is not what this workload measures: every inquiry finds
    // every roommate (as the repository's community bench fixture does),
    // so all seeds converge in the first scan instead of after a random
    // number of 20 s rounds.
    net::TechProfile bt = net::bluetooth_2_0();
    bt.inquiry_detect_prob = 1.0;
    for (std::size_t r = 0; r < size.rooms; ++r) {
      const sim::Vec2 centre{100.0 * static_cast<double>(r % 8),
                             100.0 * static_cast<double>(r / 8)};
      for (std::size_t k = 0; k < size.per_room; ++k) {
        const std::size_t i = r * size.per_room + k;
        auto device = std::make_unique<Device>();
        device->room = r;
        device->rng = sim::Rng(seed * 1000003 + i);
        peerhood::StackConfig config;
        config.device_name =
            "room" + std::to_string(r) + "-" + std::to_string(k);
        config.radios = {bt};
        const sim::Vec2 pos{centre.x + placement.uniform(-3.0, 3.0),
                            centre.y + placement.uniform(-3.0, 3.0)};
        device->stack = std::make_unique<peerhood::Stack>(
            medium_, std::make_unique<sim::StaticMobility>(pos), config);
        device->app = std::make_unique<community::CommunityApp>(*device->stack);
        auto account = device->app->create_account(member(i), "pw");
        PH_CHECK(account.ok());
        (*account)->add_interest(kTopics[i % kTopics.size()]);
        (*account)->add_interest(kTopics[(i + 2) % kTopics.size()]);
        for (std::size_t m = 0; m < size.per_room; ++m) {
          if (m != k) (*account)->add_trusted(member(r * size.per_room + m));
        }
        (*account)->share_file(file_name(i), file_content(i));
        PH_CHECK(device->app->login(member(i), "pw").ok());
        devices_.push_back(std::move(device));
      }
    }
  }

  /// Runs virtual time until every device sees its roommates' community
  /// service, then on to 30 virtual s, so that every seed's set-up also
  /// covers the first group probes; false when a room has not converged
  /// after 10 virtual minutes.
  bool converge() {
    const std::size_t want = size_.per_room - 1;
    while (simulator_.now() < sim::minutes(10)) {
      bool all = true;
      for (const auto& device : devices_) {
        if (device->app->stack()
                .library()
                .find_service(community::kServiceName)
                .size() != want) {
          all = false;
          break;
        }
      }
      if (all) {
        converged_at_ = simulator_.now();
        simulator_.run_until(std::max<sim::Time>(simulator_.now(),
                                                 sim::seconds(30)));
        return true;
      }
      simulator_.run_for(sim::seconds(1));
    }
    return false;
  }

  /// Starts every device's closed loop.
  void start_loops() {
    for (std::size_t i = 0; i < devices_.size(); ++i) schedule_next(i);
  }

  void run_block() {
    const sim::Time end = simulator_.now() + size_.block;
    while (simulator_.now() < end) {
      const std::int64_t span =
          journal_.open("sim", "sim.run_until", simulator_.now());
      simulator_.run_until(
          std::min<sim::Time>(end, simulator_.now() + sim::seconds(1)));
      journal_.close(span, simulator_.now());
    }
  }

  sim::Simulator& simulator() { return simulator_; }
  net::Medium& medium() { return medium_; }
  sim::Time converged_at() const { return converged_at_; }
  std::vector<OpRecord>& records() { return records_; }
  std::size_t size() const { return devices_.size(); }

  std::vector<net::NodeId> node_ids() const {
    std::vector<net::NodeId> ids;
    for (const auto& device : devices_) ids.push_back(device->stack->id());
    return ids;
  }
  std::vector<std::pair<net::NodeId, net::NodeId>> roommate_pairs() const {
    std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
    for (std::size_t i = 0; i < devices_.size(); ++i) {
      for (std::size_t m : roommates(i)) {
        pairs.emplace_back(devices_[i]->stack->id(), devices_[m]->stack->id());
      }
    }
    return pairs;
  }

  /// The requests the loops issued and the responses their servers give,
  /// one pair per operation kind that travels over the radio.
  std::vector<std::pair<proto::Request, proto::Response>> wire_samples() {
    const std::string self = member(0);
    const std::string peer = member(1);
    const community::Account& account = *devices_[1]->app->active();
    std::vector<std::pair<proto::Request, proto::Response>> samples;
    auto add = [&](proto::Opcode op, std::string target, std::string argument,
                   proto::Response response) {
      proto::Request request{op, self, std::move(target), std::move(argument),
                             {}};
      response.op = op;
      samples.emplace_back(std::move(request), std::move(response));
    };
    proto::Response names;
    for (std::size_t m : roommates(0)) names.names.push_back(member(m));
    add(proto::Opcode::ps_get_online_member_list, "", "", names);
    proto::Response topics;
    topics.names = account.profile().interests;
    add(proto::Opcode::ps_get_interest_list, "", "", topics);
    proto::Response profile;
    profile.profile = account.profile();
    add(proto::Opcode::ps_get_profile, peer, "", profile);
    proto::Response items;
    items.items = account.shared_items();
    add(proto::Opcode::ps_get_shared_content, peer, "", items);
    proto::Response content;
    content.content = file_content(1);
    add(proto::Opcode::ps_get_content, peer, file_name(1), content);
    proto::Response written;
    written.status = proto::Status::successfully_written;
    add(proto::Opcode::ps_add_profile_comment, peer, "comment", written);
    proto::Request mail{proto::Opcode::ps_msg, self, peer, "", {}};
    mail.mail = {peer, self, "subject", std::string(64, 'x'), 0};
    samples.emplace_back(mail, written);
    samples.back().second.op = proto::Opcode::ps_msg;
    return samples;
  }

  std::vector<PeerInput> peers_of(std::size_t i) const {
    std::vector<PeerInput> peers;
    for (std::size_t m : roommates(i)) {
      peers.push_back(
          {member(m), devices_[m]->app->active()->profile().interests});
    }
    return peers;
  }
  std::vector<std::string> interests_of(std::size_t i) const {
    return devices_[i]->app->active()->profile().interests;
  }

 private:
  struct Device {
    std::size_t room = 0;
    sim::Rng rng{0};
    std::unique_ptr<peerhood::Stack> stack;
    std::unique_ptr<community::CommunityApp> app;
    std::uint64_t sent = 0;
    bool extra_interest = false;
  };

  static std::string member(std::size_t i) { return "u" + std::to_string(i); }
  static std::string file_name(std::size_t i) {
    return "notes-" + std::to_string(i) + ".txt";
  }
  Bytes file_content(std::size_t i) const {
    sim::Rng rng(seed_ * 7919 + i);
    Bytes bytes(kFileBytes);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    return bytes;
  }
  std::vector<std::size_t> roommates(std::size_t i) const {
    std::vector<std::size_t> mates;
    const std::size_t first = (i / size_.per_room) * size_.per_room;
    for (std::size_t m = first; m < first + size_.per_room; ++m) {
      if (m != i) mates.push_back(m);
    }
    return mates;
  }

  void schedule_next(std::size_t i) {
    Device& device = *devices_[i];
    const auto think = static_cast<sim::Duration>(
        device.rng.uniform(0.5, 1.5) * 1e6);
    simulator_.schedule(think, [this, i] { issue(i); });
  }

  /// Issues one operation from device i; completion records it, checks its
  /// output and schedules the next.
  void issue(std::size_t i) {
    Device& device = *devices_[i];
    const Op op = pick_op(device.rng);
    const std::vector<std::size_t> mates = roommates(i);
    const std::size_t target =
        mates[device.rng.uniform_int(0, mates.size() - 1)];
    const std::string who = member(target);
    const sim::Time start = simulator_.now();
    const std::int64_t span =
        journal_.open("community", kOpNames[static_cast<int>(op)], start);
    auto finish = [this, i, op, start, span](bool ok) {
      journal_.close(span, simulator_.now());
      records_.push_back({op, start, simulator_.now(), ok});
      schedule_next(i);
    };
    community::CommunityClient& client = device.app->client();
    switch (op) {
      case Op::online_members:
        client.get_online_members(
            [this, i, finish](Result<std::vector<std::string>> names) {
              if (!names) return finish(false);
              std::set<std::string> expected;
              for (std::size_t m : roommates(i)) expected.insert(member(m));
              for (const std::string& name : *names) {
                result_.check(expected.contains(name),
                              "rooms: online member '" + name +
                                  "' is not a roommate");
              }
              finish(names->size() == expected.size());
            });
        break;
      case Op::interest_list:
        client.get_interest_list(
            [this, finish](Result<std::vector<std::string>> names) {
              if (!names) return finish(false);
              for (const std::string& name : *names) {
                result_.check(std::find(kTopics.begin(), kTopics.end(), name) !=
                                      kTopics.end() ||
                                  name.rfind("extra-", 0) == 0,
                              "rooms: unknown interest '" + name + "'");
              }
              finish(!names->empty());
            });
        break;
      case Op::view_profile:
        client.view_profile(who, [this, who, finish](
                                     Result<proto::ProfileData> profile) {
          if (!profile) return finish(false);
          result_.check(profile->member_id == who,
                        "rooms: profile of '" + profile->member_id +
                            "' returned for '" + who + "'");
          finish(true);
        });
        break;
      case Op::shared_content:
        client.view_shared_content(
            who, [this, target, finish](
                     Result<std::vector<proto::SharedItemData>> items) {
              if (!items) return finish(false);
              result_.check(items->size() == 1 &&
                                items->front().name == file_name(target) &&
                                items->front().size_bytes == kFileBytes,
                            "rooms: shared-content listing of " +
                                member(target) + " is wrong");
              finish(true);
            });
        break;
      case Op::fetch_content:
        client.fetch_content(
            who, file_name(target),
            [this, target, finish](Result<Bytes> bytes) {
              if (!bytes) return finish(false);
              result_.check(*bytes == file_content(target),
                            "rooms: fetched content of " + member(target) +
                                " differs from the shared file");
              finish(true);
            });
        break;
      case Op::comment: {
        const std::string text = "c" + std::to_string(i) + "-" +
                                 std::to_string(device.sent++);
        client.put_profile_comment(
            who, text, [this, target, text, finish](Result<void> done) {
              if (!done) return finish(false);
              const auto& comments =
                  devices_[target]->app->active()->profile().comments;
              result_.check(std::any_of(comments.rbegin(), comments.rend(),
                                        [&](const proto::CommentData& c) {
                                          return c.text == text;
                                        }),
                            "rooms: comment missing from " + member(target));
              finish(true);
            });
        break;
      }
      case Op::message: {
        const std::string subject = "s" + std::to_string(i) + "-" +
                                    std::to_string(device.sent++);
        device.app->send_message(
            who, subject, "hello from " + member(i),
            [this, target, subject, finish](Result<void> done) {
              if (!done) return finish(false);
              const auto& inbox = devices_[target]->app->active()->inbox();
              result_.check(std::any_of(inbox.rbegin(), inbox.rend(),
                                        [&](const proto::MailData& mail) {
                                          return mail.subject == subject;
                                        }),
                            "rooms: message missing from " + member(target) +
                                "'s inbox");
              finish(true);
            });
        break;
      }
      case Op::interest_toggle: {
        const std::string extra = "extra-" + std::to_string(i % 3);
        const Result<void> done = device.extra_interest
                                      ? device.app->remove_interest(extra)
                                      : device.app->add_interest(extra);
        device.extra_interest = !device.extra_interest;
        const auto& interests = device.app->active()->profile().interests;
        const bool present = std::find(interests.begin(), interests.end(),
                                       extra) != interests.end();
        result_.check(present == device.extra_interest,
                      "rooms: interest toggle not applied");
        finish(done.ok());
        break;
      }
    }
  }

  RoomsSize size_;
  RunResult& result_;
  SpanJournal& journal_;
  sim::Simulator simulator_;
  net::Medium medium_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<OpRecord> records_;
  sim::Time converged_at_ = 0;
};

struct Fingerprint {
  std::uint64_t events = 0;
  sim::Time converged_at = 0;
  bool operator==(const Fingerprint&) const = default;
};

/// Runs the closed loops and the measured window on a converged world and
/// fills `result` with its metrics (per-layer ones too when traced).
void measure(Rooms& rooms, const RoomsSize& size, SpanJournal& journal,
             const Options& options, RunResult& result) {
  sim::Simulator& simulator = rooms.simulator();
  const obs::Registry& registry = rooms.medium().registry();
  rooms.start_loops();
  simulator.run_for(size.loop_warmup);
  rooms.records().clear();

  std::vector<double> rpc_bounds;
  const std::vector<std::uint64_t> rpc_before =
      sum_buckets(registry, "community.client.", "rpc_us", &rpc_bounds);
  std::vector<std::uint64_t> rpc_prefix;
  std::size_t prefix_records = 0;
  SimWindow window(simulator, registry, journal, options);
  window.run(
      size.deterministic_blocks, [&] { rooms.run_block(); },
      [&] { return static_cast<double>(rooms.records().size()); },
      [&] {
        prefix_records = rooms.records().size();
        rpc_prefix =
            sum_buckets(registry, "community.client.", "rpc_us", nullptr);
      });

  // --- end-to-end ---------------------------------------------------------
  // Every finished operation counts; latencies come from the deterministic
  // prefix and from operations that succeeded.
  const std::vector<OpRecord>& records = rooms.records();
  std::vector<double> all_ms, read_ms, write_ms;
  std::vector<std::uint64_t> kind_count(kOpKinds, 0);
  for (std::size_t r = 0; r < records.size(); ++r) {
    const OpRecord& record = records[r];
    ++result.attempted;
    if (!record.ok) ++result.failed;
    ++kind_count[static_cast<int>(record.op)];
    if (r >= prefix_records || !record.ok) continue;
    const double ms = sim::to_milliseconds(record.virt_end - record.virt_start);
    all_ms.push_back(ms);
    (is_write(record.op) ? write_ms : read_ms).push_back(ms);
  }
  result.values["peak_rss_mb"] = window.rss_mb();
  result.values["ops_per_s"] = window.ops_rate();
  result.values["op_mean_ms"] = mean(all_ms);
  result.values["op_p99_ms"] = quantile(all_ms, 0.99);
  result.headline("op_p50_virtual_ms", quantile(all_ms, 0.50), "ms");
  result.headline("op_mean_virtual_ms", mean(all_ms), "ms");
  result.headline("op_p99_virtual_ms", quantile(all_ms, 0.99), "ms");
  result.headline("sim_s_per_wall_s", window.sim_rate(), "s/s");
  result.headline("deterministic_ops", static_cast<double>(all_ms.size()),
                  "count");
  for (int k = 0; k < kOpKinds; ++k) {
    result.headline(std::string("ops.") + kOpNames[k],
                    static_cast<double>(kind_count[k]), "count");
  }
  if (!options.trace) return;

  // --- per-layer (traced run) ---------------------------------------------
  window.add_layer_metrics(result);
  auto& v = result.values;
  v["community.rpc_p50_virtual_ms"] =
      hist_delta_quantile(rpc_bounds, rpc_before, rpc_prefix, 0.50) / 1e3;
  v["community.read_p50_virtual_ms"] = quantile(read_ms, 0.5);
  v["community.write_p50_virtual_ms"] = quantile(write_ms, 0.5);
  std::vector<PeerInput> peers;
  for (std::size_t i = 0; i < rooms.size() && peers.size() < 2000; ++i) {
    for (PeerInput& peer : rooms.peers_of(i)) peers.push_back(std::move(peer));
  }
  window.add_replays_and_ledger(rooms.medium(), rooms.node_ids(),
                                rooms.roommate_pairs(), rooms.interests_of(0),
                                peers, rooms.wire_samples(), result);
}

}  // namespace

RunResult run_rooms(const Options& options) {
  RunResult result;
  RoomsSize size;
  if (options.smoke) {
    size.rooms = 4;
    size.deterministic_blocks = 1;
  }

  // Every set-up (see setup_count) is timed and fingerprinted:
  // convergence must repeat exactly for one seed.
  SpanJournal journal;
  std::vector<double> setup_s;
  std::vector<Fingerprint> prints;
  auto build = [&]() -> std::unique_ptr<Rooms> {
    next_cpu();
    const auto start = Clock::now();
    auto rooms = std::make_unique<Rooms>(size, options.seed, result, journal);
    const bool converged = rooms->converge();
    setup_s.push_back(seconds_since(start));
    result.check(converged, "rooms: a room did not converge in 10 virtual min");
    if (!converged) return nullptr;
    prints.push_back({rooms->simulator().events_executed(),
                      rooms->converged_at()});
    return rooms;
  };
  const int setups = setup_count(options, 9);
  const int before = (setups + 1) / 2;
  std::unique_ptr<Rooms> rooms;
  for (int i = 0; i < before; ++i) {
    rooms.reset();
    rooms = build();
    if (!rooms) return result;
  }
  std::printf("rooms: %zu devices in %zu rooms converged at %.1f virtual s "
              "(events=%llu)\n",
              rooms->size(), size.rooms,
              sim::to_seconds(prints.front().converged_at),
              static_cast<unsigned long long>(prints.front().events));
  measure(*rooms, size, journal, options, result);
  result.write_spans(journal, options);
  rooms.reset();
  for (int i = before; i < setups; ++i) {
    if (!build()) return result;
  }

  result.values["setup_s"] = median(setup_s);
  for (const Fingerprint& print : prints) {
    result.check(print == prints.front(),
                 "rooms: convergence differs across set-ups of one seed");
  }
  return result;
}

}  // namespace perfbench
