// Simulated message transport. One bus per simulation; endpoints are
// string addresses. The IM service (im::ImServer and its
// im::ImClientApp clients) is the only sender: e-mail and SMS travel
// through their own servers, not over the bus.
//
// The bus models what the paper's dependability story needs:
// per-link latency distributions (IM "< 1 second", email "seconds to
// days"), message loss, and link partitions (corporate proxy failures,
// network disconnection) — plus, for the chaos harness (sim/chaos.h),
// adversarial message faults: duplication, reordering, delay spikes,
// and late loss (the message dies at arrival time, after the sender
// committed to it).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/chaos.h"
#include "sim/simulator.h"
#include "util/flat_map.h"
#include "util/interner.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/trace.h"

namespace simba::net {

/// (from, to) address-pair key for the link and partition maps. The
/// composed util::PairStringHash/Eq are transparent, so the per-send
/// partition check probes with a pair of string_views and builds no
/// temporary strings.
using AddressPair = std::pair<std::string, std::string>;

/// An in-flight message: the IM wire record. `type` is the protocol
/// discriminator (im/im_server.h `proto`), and the IM protocol's
/// fixed fields are plain members, so a keepalive formats, parses and
/// allocates no header text. The bus itself reads only `from`, `to`,
/// `type` and the alert keys of `headers`; it never includes im/.
struct Message {
  std::string from;
  std::string to;
  std::string type;
  std::string body;
  /// The session's user on login, logout, ping, login.ok and
  /// logged_out; the sender on send and deliver.
  std::string user;
  /// The recipient on send and deliver.
  std::string to_user;
  /// Session epoch on ping, send and login.ok.
  std::uint64_t epoch = 0;
  /// The request's message id on every server reply (0: not a reply;
  /// bus ids start at 1).
  std::uint64_t in_reply_to = 0;
  /// Why login.err or send.err refused; a string literal, or null when
  /// the sender gave none.
  const char* reason = nullptr;
  /// pong: the pinged session is current.
  bool valid = false;
  /// The application payload only: the alert, ack and command keys
  /// that core (and traced()/trace_id() here) read. IM control
  /// messages carry none, and an alert IM without attributes stays
  /// within FlatMap's small-map mode (DESIGN.md §16).
  util::FlatMap<std::string, std::string> headers;
  TimePoint sent_at{};
  std::uint64_t id = 0;
};

/// Latency/loss model for one direction of a link.
struct LinkModel {
  Duration base_latency = millis(20);
  Duration jitter = millis(10);  // additional, uniform in [0, jitter]
  double loss_probability = 0.0;

  Duration sample_latency(Rng& rng) const {
    return base_latency + rng.uniform_duration(Duration::zero(), jitter);
  }
};

class MessageBus {
 public:
  using Handler = std::function<void(const Message&)>;

  explicit MessageBus(sim::Simulator& sim);

  /// Registers the handler for an address, replacing any previous one.
  void attach(const std::string& address, Handler handler);
  /// Removes the endpoint; in-flight messages to it are dropped on
  /// arrival (counted as "undeliverable").
  void detach(const std::string& address);
  bool attached(const std::string& address) const;

  /// Model applied when no per-link override matches.
  void set_default_link(LinkModel model) { default_link_ = model; }
  /// Override for the ordered pair (from, to).
  void set_link(const std::string& from, const std::string& to,
                LinkModel model);

  /// Severs both directions between two addresses until healed.
  void partition(const std::string& a, const std::string& b);
  /// Undoes one matching partition(). Healing a pair that was never
  /// partitioned is a counted no-op ("heal.unmatched") — the partition
  /// count can never underflow.
  void heal(const std::string& a, const std::string& b);
  bool partitioned(const std::string& a, const std::string& b) const;

  /// Arms chaos-driven message faults (duplicate / reorder / delay
  /// spike / late loss). The decisions roll on `rng`, a dedicated
  /// stream, so arming chaos never perturbs the benign loss/latency
  /// stream — a chaos world and its control stay comparable.
  void set_chaos(const sim::NetChaosConfig& config, Rng rng);

  /// Sends a message. Delivery (or loss) is decided now; arrival is a
  /// scheduled simulator event. Returns the assigned message id.
  std::uint64_t send(Message message);

  /// Bounds the number of messages concurrently in flight; a send over
  /// the bound is shed with explicit accounting ("pending.shed")
  /// instead of scheduled. 0 (default) = unbounded.
  void set_pending_bound(std::size_t bound) { pending_bound_ = bound; }

  /// Messages currently awaiting arrival.
  std::size_t pending() const {
    return inflight_pool_.size() - inflight_free_.size();
  }

  const Counters& stats() const { return stats_; }

  /// Checkpoint restore (sim/snapshot.h): carries the transport counter
  /// bag across a crash-restart. In-flight messages are deliberately
  /// NOT carried — they die with the process image, and end-to-end
  /// recovery flows through the pessimistic log, not the wire.
  void restore_stats(Counters stats) { stats_ = std::move(stats); }

  /// In-flight pool introspection for tests and benches: slots ever
  /// created, and slots currently free. Steady-state traffic plateaus
  /// at the link's bandwidth-delay product and then recycles.
  std::size_t inflight_slots() const { return inflight_pool_.size(); }
  std::size_t inflight_free() const { return inflight_free_.size(); }

  /// Arms lifecycle tracing (null disables it). Spans are correlated
  /// to an alert through the message headers, so transit, chaos
  /// injections, and drops show up on the alert's timeline.
  void set_trace(util::Trace* trace) { trace_ = trace; }

 private:
  const LinkModel& link_for(std::string_view from, std::string_view to) const;
  /// Schedules one arrival. `chaos_late_loss` kills the message at
  /// arrival time (counted "dropped.chaos_late_loss").
  void schedule_delivery(Message message, Duration latency,
                         bool chaos_late_loss);
  /// Runs one arrival (the delivery-event body) for the pooled
  /// message in `slot`, then recycles the slot.
  void arrive(std::uint32_t slot, bool chaos_late_loss);
  /// Moves `message` into a pooled slot (reusing a free one when
  /// possible) and returns its index.
  std::uint32_t acquire_inflight(Message&& message);
  void recycle_inflight(std::uint32_t slot);
  /// The alert id a message belongs to ("" for non-alert traffic).
  std::string trace_id(const Message& message) const;
  /// True when lifecycle tracing is armed. Call sites that build a
  /// detail string must check this first so disabled tracing costs
  /// nothing (ISSUE satellite: no detail construction when off).
  bool tracing() const { return trace_ != nullptr; }
  /// True when this message would actually emit a span: tracing armed
  /// AND alert-correlated. Keepalive traffic (pings, logins, presence)
  /// dominates message volume, so call sites that concatenate a detail
  /// string must gate on this — not just tracing() — or every ping
  /// pays string-building for a span trace_event then discards.
  bool traced(const Message& message) const {
    return trace_ != nullptr && (message.headers.contains("alert_id") ||
                                 message.headers.contains("simba_ack_for"));
  }
  void trace_event(const Message& message, const char* stage,
                   std::string detail);
  /// Stable interned "net.deliver:<type>" label for the simulator
  /// event, built once per distinct message type.
  const char* deliver_label(const std::string& type);

  sim::Simulator& sim_;
  Rng rng_;
  /// Lookup-only flat maps (DESIGN.md §16): nothing iterates these, so
  /// insertion-order traversal is irrelevant and every per-send /
  /// per-arrival probe is a single open-addressing hash lookup.
  util::FlatMap<std::string, Handler> endpoints_;
  util::FlatMap<AddressPair, LinkModel> links_;
  util::FlatMap<AddressPair, int> partitions_;
  LinkModel default_link_;
  /// Addresses that were attached once and detached since; in-flight
  /// messages to them count under "dropped.undeliverable" rather than
  /// "dropped.unreachable" (never-attached).
  util::FlatSet<std::string> detached_;
  sim::NetChaosConfig chaos_;
  std::optional<Rng> chaos_rng_;
  std::uint64_t next_id_ = 1;
  Counters stats_;
  util::Trace* trace_ = nullptr;
  /// Event labels handed to the simulator must outlive their events;
  /// the interner owns them, the cache makes the per-send lookup a
  /// single allocation-free transparent map probe.
  util::StringInterner label_interner_;
  util::FlatMap<std::string, const char*> deliver_labels_;
  /// In-flight message pool (DESIGN.md §13). A message awaiting
  /// arrival lives in a pooled slot so the delivery closure captures
  /// only (this, slot, late_loss) — small enough for std::function's
  /// inline buffer, making a send schedule its arrival with no
  /// per-send closure allocation. std::deque keeps slot references
  /// stable while handlers send (and thus grow the pool) mid-arrival;
  /// a chaos duplicate occupies its own slot. Slots recycle after the
  /// handler returns, so the pool plateaus at the peak number of
  /// concurrently in-flight messages.
  // simba-lint: bounded(pending_bound_, shed in send())
  std::deque<Message> inflight_pool_;
  std::vector<std::uint32_t> inflight_free_;
  std::size_t pending_bound_ = 0;
};

}  // namespace simba::net
