// Simulated message transport. One bus per simulation; endpoints are
// named addresses, interned once into dense net::Address ids. The IM
// service (im::ImServer and its im::ImClientApp clients) is the only
// sender: e-mail and SMS travel through their own servers, not over
// the bus.
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

/// An interned endpoint: an index into its bus's endpoint table
/// (MessageBus::intern). Ids are dense, per bus, and never reused.
/// The zero id is the empty name, which nothing attaches to, so a
/// message sent without a `to` is counted unreachable.
enum class Address : std::uint32_t {};

/// An in-flight message: the IM wire record. `type` is the protocol
/// discriminator (im/im_server.h `proto`), and the IM protocol's
/// fixed fields are plain members, so a keepalive copies, compares and
/// allocates no text. The bus itself reads only `from`, `to`, `type`
/// and the alert keys of `headers`; it never includes im/.
struct Message {
  Address from{};
  Address to{};
  /// Points at a string literal (the im/im_server.h proto constants,
  /// one object each), so receivers dispatch on the pointer and the
  /// bus keys its delivery labels by it.
  const char* type = "";
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

  /// The id of the endpoint named `name`, entered in the table on
  /// first sight. Components intern their addresses once, when they
  /// are built; messages carry only ids.
  Address intern(std::string_view name);
  /// The name `address` was interned from (spans and debug logs).
  const std::string& name(Address address) const {
    return endpoints_[index(address)].name;
  }

  /// Registers the handler for an address, replacing any previous one.
  /// A handler may attach or detach any address while it runs, its own
  /// included: the running handler is neither destroyed nor moved.
  void attach(Address address, Handler handler);
  /// Removes the endpoint; in-flight messages to it are dropped on
  /// arrival (counted as "undeliverable").
  void detach(Address address);
  bool attached(Address address) const {
    return endpoints_[index(address)].state == Endpoint::State::kAttached;
  }
  // The set-up entry points by name intern and forward.
  void attach(std::string_view name, Handler handler) {
    attach(intern(name), std::move(handler));
  }
  void detach(std::string_view name) { detach(intern(name)); }
  bool attached(std::string_view name) { return attached(intern(name)); }

  /// Model applied when no per-link override matches.
  void set_default_link(LinkModel model) { default_link_ = model; }
  /// Override for the ordered pair (from, to).
  void set_link(std::string_view from, std::string_view to, LinkModel model);

  /// Severs both directions between two addresses until healed.
  void partition(std::string_view a, std::string_view b);
  /// Undoes one matching partition(). Healing a pair that was never
  /// partitioned is a counted no-op ("heal.unmatched") — the partition
  /// count can never underflow.
  void heal(std::string_view a, std::string_view b);
  bool partitioned(std::string_view a, std::string_view b) {
    return partitioned(intern(a), intern(b));
  }

  /// Arms chaos-driven message faults (duplicate / reorder / delay
  /// spike / late loss). The decisions roll on `rng`, a dedicated
  /// stream, so arming chaos never perturbs the benign loss/latency
  /// stream — a chaos world and its control stay comparable.
  void set_chaos(const sim::NetChaosConfig& config, Rng rng);

  /// Sends a message. Delivery (or loss) is decided now; arrival is a
  /// scheduled simulator event. Returns the assigned message id. The
  /// message is moved once, into its in-flight slot; a caller that
  /// keeps its own copy passes `Message(copy)`.
  std::uint64_t send(Message&& message);

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
  /// One row of the endpoint table, indexed by Address.
  struct Endpoint {
    /// kNever: interned but never attached ("dropped.unreachable");
    /// kDetached: attached once and detached since
    /// ("dropped.undeliverable").
    enum class State : std::uint8_t { kNever, kAttached, kDetached };
    std::string name;
    /// Empty unless attached, and also while its own call runs:
    /// arrive() holds the running handler in its frame.
    Handler handler;
    State state = State::kNever;
  };

  static std::size_t index(Address address) {
    return static_cast<std::size_t>(address);
  }
  /// Map key of the ordered pair (a, b).
  static std::uint64_t pair_key(Address a, Address b) {
    return std::uint64_t{static_cast<std::uint32_t>(a)} << 32 |
           static_cast<std::uint32_t>(b);
  }
  /// Partition key: the unordered pair {a, b}.
  static std::uint64_t unordered_key(Address a, Address b) {
    return a <= b ? pair_key(a, b) : pair_key(b, a);
  }
  bool partitioned(Address a, Address b) const {
    return !partitions_.empty() && partitions_.contains(unordered_key(a, b));
  }
  const LinkModel& link_for(Address from, Address to) const;
  /// Schedules one arrival. `chaos_late_loss` kills the message at
  /// arrival time (counted "dropped.chaos_late_loss").
  void schedule_delivery(Message&& message, Duration latency,
                         bool chaos_late_loss);
  /// Runs one arrival (the delivery-event body) for the pooled
  /// message in `slot`, then recycles the slot.
  void arrive(std::uint32_t slot, bool chaos_late_loss);
  /// Moves `message` into a pooled slot (reusing a free one when
  /// possible) and returns its index.
  std::uint32_t acquire_inflight(Message&& message);
  void recycle_inflight(std::uint32_t slot);
  /// "from -> to" by name, for debug logs and span details.
  std::string route(const Message& message) const {
    return name(message.from) + " -> " + name(message.to);
  }
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
  const char* deliver_label(const char* type);

  sim::Simulator& sim_;
  Rng rng_;
  /// The endpoint table, indexed by Address, and its name index, used
  /// only by intern(). A running handler lives in arrive()'s frame, so
  /// the table may grow (and move its rows) while one runs.
  std::vector<Endpoint> endpoints_;
  util::FlatMap<std::string, Address> ids_;
  /// Keyed by pair_key / unordered_key. Nothing in a world sets links
  /// or partitions (only tests do), and a send probes neither map
  /// while it is empty.
  util::FlatMap<std::uint64_t, LinkModel> links_;
  util::FlatMap<std::uint64_t, int> partitions_;
  LinkModel default_link_;
  sim::NetChaosConfig chaos_;
  std::optional<Rng> chaos_rng_;
  std::uint64_t next_id_ = 1;
  Counters stats_;
  util::Trace* trace_ = nullptr;
  /// Event labels handed to the simulator must outlive their events;
  /// the interner owns them. The (type, label) pairs are searched by
  /// type pointer: the protocol's 11 types bound the scan.
  util::StringInterner label_interner_;
  std::vector<std::pair<const char*, const char*>> deliver_labels_;
  /// In-flight message pool (DESIGN.md §13). A message awaiting
  /// arrival lives in a pooled slot so the delivery closure captures
  /// only (this, slot, late_loss): trivially copyable and at most
  /// 16 B, the two conditions under which libstdc++'s std::function
  /// stores a target inline, so a send schedules its arrival with no
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
