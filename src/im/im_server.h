// Simulated Instant Messaging service (the MSN-Messenger stand-in).
//
// Models exactly the properties SIMBA depends on (Section 3.1):
// presence, synchronous delivery with sub-second latency, sessions that
// can be dropped by "server recovery or network disconnection", and
// extended service outages (the paper's month saw five, 4-103 minutes).
// Application-level acknowledgements are NOT provided here — SIMBA
// layers them on top, which is the point of the paper's design.
#pragma once

#include <cstdint>
#include <string>

#include "net/bus.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "util/flat_map.h"

namespace simba::im {

/// Wire protocol message types, carried over net::MessageBus.
/// client -> server: im.login, im.logout, im.ping, im.send
/// server -> client: im.login.ok, im.login.err, im.pong, im.send.ok,
///                   im.send.err, im.deliver, im.logged_out
/// Each constant is one object program-wide, so net::Message::type
/// points at it and both ends dispatch on the pointer. The protocol's
/// fields are net::Message's typed members (user, to_user, epoch,
/// in_reply_to, reason, valid); `headers` carries only the
/// application payload of send and deliver.
namespace proto {
inline constexpr char kLogin[] = "im.login";
inline constexpr char kLoginOk[] = "im.login.ok";
inline constexpr char kLoginErr[] = "im.login.err";
inline constexpr char kLogout[] = "im.logout";
inline constexpr char kPing[] = "im.ping";
inline constexpr char kPong[] = "im.pong";
inline constexpr char kSend[] = "im.send";
inline constexpr char kSendOk[] = "im.send.ok";
inline constexpr char kSendErr[] = "im.send.err";
inline constexpr char kDeliver[] = "im.deliver";
inline constexpr char kLoggedOut[] = "im.logged_out";
}  // namespace proto

class ImServer {
 public:
  static constexpr char kDefaultAddress[] = "im.server";

  ImServer(sim::Simulator& sim, net::MessageBus& bus,
           std::string address = kDefaultAddress);

  const std::string& address() const { return address_; }

  /// Creates an account. Users must exist before login.
  void register_account(const std::string& user);
  bool has_account(const std::string& user) const;

  /// Presence as the server sees it.
  bool online(const std::string& user) const;

  /// Service outages. While down the server silently ignores traffic
  /// (clients observe timeouts); when an outage begins, all sessions
  /// are dropped, so clients must re-login after recovery ("server
  /// recovery" logouts).
  void set_outage_plan(sim::OutagePlan plan);
  bool down() const;

  /// Drops one user's session and notifies the client — the "you have
  /// been signed out" events that sanity checking re-logins fix.
  void force_logout(const std::string& user);

  /// Mean time between per-session forced logouts (0 = disabled).
  void set_session_reset_mtbf(Duration mtbf) { session_reset_mtbf_ = mtbf; }

  const Counters& stats() const { return stats_; }

 private:
  struct Session {
    std::uint64_t epoch = 0;
    net::Address client_address{};
    sim::EventId reset_event = 0;
  };

  void handle(const net::Message& m);
  void handle_login(const net::Message& m);
  void handle_send(const net::Message& m);
  /// Sends `fields` back to the request's sender as a `type` reply
  /// naming the request's id.
  void reply(const net::Message& request, const char* type,
             net::Message&& fields = {});
  void drop_all_sessions();
  void arm_session_reset(const std::string& user);

  sim::Simulator& sim_;
  net::MessageBus& bus_;
  std::string address_;
  net::Address bus_address_;
  Rng rng_;
  util::FlatSet<std::string> accounts_;
  /// Dropped via sorted_items() on outage so logged-out notices go out
  /// in user order, matching the old ordered map's message sequence.
  util::FlatMap<std::string, Session> sessions_;
  sim::OutagePlan outages_;
  bool was_down_ = false;  // edge detection for session drops
  Duration session_reset_mtbf_{};
  std::uint64_t next_epoch_ = 1;
  Counters stats_;
};

}  // namespace simba::im
