// Unit tests for the IM service substrate: server sessions/presence/
// outages and the flaky GUI client.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "im/im_client.h"
#include "im/im_server.h"
#include "net/bus.h"
#include "sim/simulator.h"

namespace simba::im {
namespace {

class ImTest : public ::testing::Test {
 protected:
  ImTest() {
    server_.register_account("alice");
    server_.register_account("bob");
  }

  std::unique_ptr<ImClientApp> make_client(const std::string& user,
                                           gui::FaultProfile profile = {},
                                           ImClientConfig config = {}) {
    auto client = std::make_unique<ImClientApp>(
        sim_, desktop_, bus_, server_.address(), user, profile, config);
    client->launch();
    return client;
  }

  void login(ImClientApp& client) {
    Status result = Status::failure("no callback");
    client.login([&](Status s) { result = std::move(s); });
    sim_.run_for(seconds(15));
    ASSERT_TRUE(result.ok()) << result.error();
  }

  sim::Simulator sim_{1};
  net::MessageBus bus_{sim_};
  gui::Desktop desktop_{sim_};
  ImServer server_{sim_, bus_};
};

TEST_F(ImTest, LoginEstablishesPresence) {
  auto alice = make_client("alice");
  EXPECT_FALSE(server_.online("alice"));
  login(*alice);
  EXPECT_TRUE(alice->is_logged_in());
  EXPECT_TRUE(server_.online("alice"));
}

TEST_F(ImTest, LoginUnknownAccountRejected) {
  server_.register_account("alice");
  auto ghost = make_client("nobody");
  // "nobody" has no account; client must learn the login failed.
  Status result;
  ghost->login([&](Status s) { result = std::move(s); });
  sim_.run_for(seconds(15));
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(ghost->is_logged_in());
}

TEST_F(ImTest, SendDeliversToOnlineRecipient) {
  auto alice = make_client("alice");
  auto bob = make_client("bob");
  login(*alice);
  login(*bob);
  Status send_result;
  alice->send_im("bob", "hi bob", {}, [&](Status s) { send_result = s; });
  sim_.run_for(seconds(10));
  EXPECT_TRUE(send_result.ok()) << send_result.error();
  auto unread = bob->fetch_unread();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0].from_user, "alice");
  EXPECT_EQ(unread[0].body, "hi bob");
  EXPECT_TRUE(bob->fetch_unread().empty());  // drained
}

TEST_F(ImTest, SendToOfflineRecipientFails) {
  auto alice = make_client("alice");
  login(*alice);
  Status send_result;
  alice->send_im("bob", "anyone there?", {},
                 [&](Status s) { send_result = s; });
  sim_.run_for(seconds(10));
  EXPECT_FALSE(send_result.ok());
  EXPECT_NE(send_result.error().find("offline"), std::string::npos);
}

TEST_F(ImTest, SendWithoutLoginFailsFast) {
  auto alice = make_client("alice");
  Status send_result;
  alice->send_im("bob", "x", {}, [&](Status s) { send_result = s; });
  EXPECT_FALSE(send_result.ok());
}

TEST_F(ImTest, NewMessageEventFires) {
  auto alice = make_client("alice");
  auto bob = make_client("bob");
  login(*alice);
  login(*bob);
  int events = 0;
  bob->set_new_message_event([&] { ++events; });
  alice->send_im("bob", "ping", {}, nullptr);
  sim_.run_for(seconds(10));
  EXPECT_EQ(events, 1);
}

TEST_F(ImTest, EventLossLeavesUnreadForSweep) {
  auto alice = make_client("alice");
  ImClientConfig lossy;
  lossy.event_loss_probability = 1.0;
  auto bob = make_client("bob", {}, lossy);
  login(*alice);
  login(*bob);
  int events = 0;
  bob->set_new_message_event([&] { ++events; });
  alice->send_im("bob", "ping", {}, nullptr);
  sim_.run_for(seconds(10));
  EXPECT_EQ(events, 0);
  EXPECT_EQ(bob->unread_count(), 1u);  // message is there, event was lost
  EXPECT_EQ(bob->stats().get("new_message_events_lost"), 1);
}

TEST_F(ImTest, ForcedLogoutNotifiesClient) {
  auto alice = make_client("alice");
  login(*alice);
  server_.force_logout("alice");
  sim_.run_for(seconds(5));
  EXPECT_FALSE(alice->is_logged_in());
  EXPECT_FALSE(server_.online("alice"));
  EXPECT_EQ(alice->stats().get("logged_out_notices"), 1);
}

TEST_F(ImTest, SessionResetMtbfForcesLogouts) {
  server_.set_session_reset_mtbf(hours(4));
  auto alice = make_client("alice");
  login(*alice);
  sim_.run_for(days(2));
  EXPECT_GE(server_.stats().get("forced_logouts"), 1);
}

TEST_F(ImTest, OutageSilentlyIgnoresTraffic) {
  sim::OutagePlan plan;
  plan.add(kTimeZero + minutes(10), minutes(30));
  server_.set_outage_plan(plan);
  auto alice = make_client("alice");
  sim_.run_until(kTimeZero + minutes(15));
  EXPECT_TRUE(server_.down());
  Status result;
  bool called = false;
  alice->login([&](Status s) {
    result = std::move(s);
    called = true;
  });
  sim_.run_for(seconds(30));
  ASSERT_TRUE(called);
  EXPECT_FALSE(result.ok());  // timed out
  EXPECT_NE(result.error().find("timed out"), std::string::npos);
}

TEST_F(ImTest, OutageDropsSessionsAtOnset) {
  auto alice = make_client("alice");
  login(*alice);
  sim::OutagePlan plan;
  plan.add(kTimeZero + minutes(10), minutes(5));
  server_.set_outage_plan(plan);
  sim_.run_until(kTimeZero + minutes(20));
  // Service is back, but the session died with the outage.
  EXPECT_FALSE(server_.online("alice"));
  // The client still *believes* it is logged in until it checks.
  Status verify;
  alice->verify_connection([&](Status s) { verify = std::move(s); });
  sim_.run_for(seconds(10));
  EXPECT_FALSE(verify.ok());
  EXPECT_FALSE(alice->is_logged_in());
  // Re-login works after recovery.
  login(*alice);
  EXPECT_TRUE(server_.online("alice"));
}

TEST_F(ImTest, StaleSessionSendRejected) {
  auto alice = make_client("alice");
  auto bob = make_client("bob");
  login(*alice);
  login(*bob);
  server_.force_logout("alice");
  // Race: alice sends before processing the logout notice. The server
  // must reject the stale epoch.
  Status send_result;
  alice->send_im("bob", "stale", {}, [&](Status s) { send_result = s; });
  sim_.run_for(seconds(10));
  EXPECT_FALSE(send_result.ok());
  EXPECT_FALSE(alice->is_logged_in());
}

TEST_F(ImTest, HungClientDropsIncomingMessages) {
  auto alice = make_client("alice");
  auto bob = make_client("bob");
  login(*alice);
  login(*bob);
  bob->force_hang();
  alice->send_im("bob", "are you there?", {}, nullptr);
  sim_.run_for(seconds(10));
  EXPECT_GE(bob->stats().get("messages_dropped_while_hung"), 1);
  bob->kill();
  bob->launch();
  EXPECT_TRUE(bob->fetch_unread().empty());
}

TEST_F(ImTest, KilledClientFailsPendingRpcs) {
  auto alice = make_client("alice");
  Status result;
  bool called = false;
  alice->login([&](Status s) {
    result = std::move(s);
    called = true;
  });
  alice->kill();  // before the reply arrives
  EXPECT_TRUE(called);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error().find("terminated"), std::string::npos);
}

TEST_F(ImTest, ReloginReplacesSession) {
  auto alice = make_client("alice");
  login(*alice);
  login(*alice);  // second login: new epoch, server keeps one session
  EXPECT_TRUE(server_.online("alice"));
  EXPECT_EQ(server_.stats().get("logins"), 2);
}

TEST_F(ImTest, LogoutClearsPresence) {
  auto alice = make_client("alice");
  login(*alice);
  alice->logout();
  sim_.run_for(seconds(5));
  EXPECT_FALSE(server_.online("alice"));
  EXPECT_FALSE(alice->is_logged_in());
}

TEST_F(ImTest, VerifyConnectionHealthyPath) {
  auto alice = make_client("alice");
  login(*alice);
  Status verify = Status::failure("pending");
  alice->verify_connection([&](Status s) { verify = std::move(s); });
  sim_.run_for(seconds(10));
  EXPECT_TRUE(verify.ok()) << verify.error();
}

TEST_F(ImTest, SequenceNumbersIncrease) {
  auto alice = make_client("alice");
  auto bob = make_client("bob");
  login(*alice);
  login(*bob);
  alice->send_im("bob", "one", {}, nullptr);
  alice->send_im("bob", "two", {}, nullptr);
  sim_.run_for(seconds(10));
  auto unread = bob->fetch_unread();
  ASSERT_EQ(unread.size(), 2u);
}

// --- The wire record -------------------------------------------------------
//
// A spy endpoint stands in for one side of the protocol and records
// every frame it receives, so each control message's typed fields and
// its (empty) header map are pinned exactly.

class ImWireTest : public ImTest {
 protected:
  /// Attaches a recording endpoint at `address`.
  std::vector<net::Message>& spy(const std::string& address) {
    auto& frames = spied_[address];
    bus_.attach(address,
                [&frames](const net::Message& m) { frames.push_back(m); });
    return frames;
  }

  /// Sends a frame of `type` from `from` to `to`; returns its bus id.
  std::uint64_t send(std::string_view from, std::string_view to,
                     const char* type, net::Message m = {}) {
    m.from = bus_.intern(from);
    m.to = bus_.intern(to);
    m.type = type;
    return bus_.send(std::move(m));
  }

  // Node-based, so a spy's frame list stays put as more spies attach.
  std::map<std::string, std::vector<net::Message>> spied_;
};

using Headers = std::vector<std::pair<std::string, std::string>>;

Headers items(const util::FlatMap<std::string, std::string>& headers) {
  return Headers(headers.begin(), headers.end());
}

TEST_F(ImWireTest, ClientRequestsCarryTypedFieldsAndNoHeaders) {
  // alice's client talks to a spy playing the server.
  auto& frames = spy("spy.server");
  auto alice = std::make_unique<ImClientApp>(sim_, desktop_, bus_, "spy.server",
                                             "alice", gui::FaultProfile{});
  alice->launch();
  Status login = Status::failure("pending");
  alice->login([&](Status s) { login = std::move(s); });
  sim_.run_for(seconds(1));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, proto::kLogin);
  EXPECT_EQ(bus_.name(frames[0].from), "im.client.alice");
  EXPECT_EQ(frames[0].user, "alice");
  EXPECT_TRUE(frames[0].headers.empty());

  net::Message ok;
  ok.user = "alice";
  ok.epoch = 7;
  ok.in_reply_to = frames[0].id;
  send("spy.server", "im.client.alice", proto::kLoginOk, std::move(ok));
  sim_.run_for(seconds(1));
  ASSERT_TRUE(login.ok()) << login.error();
  EXPECT_TRUE(alice->is_logged_in());

  // One at a time: link jitter may reorder frames sent together.
  alice->verify_connection(nullptr);
  sim_.run_for(seconds(1));
  alice->send_im("bob", "hi", {{"alert_id", "a-1"}, {"simba_kind", "alert"}},
                 nullptr);
  sim_.run_for(seconds(1));
  alice->logout();
  sim_.run_for(seconds(1));
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[1].type, proto::kPing);
  EXPECT_EQ(frames[1].user, "alice");
  EXPECT_EQ(frames[1].epoch, 7u);
  EXPECT_TRUE(frames[1].headers.empty());
  EXPECT_EQ(frames[2].type, proto::kSend);
  EXPECT_EQ(frames[2].user, "alice");
  EXPECT_EQ(frames[2].to_user, "bob");
  EXPECT_EQ(frames[2].epoch, 7u);
  EXPECT_EQ(frames[2].body, "hi");
  EXPECT_EQ(items(frames[2].headers),
            (Headers{{"alert_id", "a-1"}, {"simba_kind", "alert"}}));
  EXPECT_EQ(frames[3].type, proto::kLogout);
  EXPECT_EQ(frames[3].user, "alice");
  EXPECT_TRUE(frames[3].headers.empty());
}

TEST_F(ImWireTest, ServerRepliesCarryTypedFieldsAndNoHeaders) {
  // Spies play alice's and bob's clients against the real server.
  auto& alice = spy("spy.alice");
  auto& bob = spy("spy.bob");
  auto last = [](const std::vector<net::Message>& frames) -> const net::Message& {
    return frames.back();
  };
  net::Message who;
  who.user = "nobody";
  std::uint64_t req = send("spy.alice", server_.address(), proto::kLogin, who);
  sim_.run_for(seconds(1));
  ASSERT_EQ(alice.size(), 1u);
  EXPECT_EQ(last(alice).type, proto::kLoginErr);
  EXPECT_EQ(last(alice).in_reply_to, req);
  EXPECT_STREQ(last(alice).reason, "no such account");

  who.user = "alice";
  req = send("spy.alice", server_.address(), proto::kLogin, who);
  sim_.run_for(seconds(1));
  ASSERT_EQ(alice.size(), 2u);
  EXPECT_EQ(last(alice).type, proto::kLoginOk);
  EXPECT_EQ(last(alice).in_reply_to, req);
  EXPECT_EQ(last(alice).user, "alice");
  const std::uint64_t epoch = last(alice).epoch;
  EXPECT_GT(epoch, 0u);

  net::Message ping;
  ping.user = "alice";
  ping.epoch = epoch;
  req = send("spy.alice", server_.address(), proto::kPing, ping);
  sim_.run_for(seconds(1));
  ASSERT_EQ(alice.size(), 3u);
  EXPECT_EQ(last(alice).type, proto::kPong);
  EXPECT_EQ(last(alice).in_reply_to, req);
  EXPECT_TRUE(last(alice).valid);

  net::Message im;
  im.user = "alice";
  im.to_user = "bob";
  im.epoch = epoch;
  im.body = "hello";
  im.headers = {{"alert_id", "a-1"}};
  send("spy.alice", server_.address(), proto::kSend, im);
  sim_.run_for(seconds(1));
  ASSERT_EQ(alice.size(), 4u);
  EXPECT_EQ(last(alice).type, proto::kSendErr);
  EXPECT_STREQ(last(alice).reason, "recipient offline");

  who.user = "bob";
  send("spy.bob", server_.address(), proto::kLogin, who);
  sim_.run_for(seconds(1));
  req = send("spy.alice", server_.address(), proto::kSend, im);
  sim_.run_for(seconds(1));
  ASSERT_EQ(alice.size(), 5u);
  EXPECT_EQ(last(alice).type, proto::kSendOk);
  EXPECT_EQ(last(alice).in_reply_to, req);
  ASSERT_EQ(bob.size(), 2u);  // login.ok, then the delivery
  EXPECT_EQ(last(bob).type, proto::kDeliver);
  EXPECT_EQ(last(bob).user, "alice");
  EXPECT_EQ(last(bob).to_user, "bob");
  EXPECT_EQ(last(bob).body, "hello");
  EXPECT_EQ(items(last(bob).headers), (Headers{{"alert_id", "a-1"}}));

  server_.force_logout("alice");
  sim_.run_for(seconds(1));
  ASSERT_EQ(alice.size(), 6u);
  EXPECT_EQ(last(alice).type, proto::kLoggedOut);
  EXPECT_EQ(last(alice).user, "alice");
  send("spy.alice", server_.address(), proto::kSend, im);  // stale epoch
  sim_.run_for(seconds(1));
  ASSERT_EQ(alice.size(), 7u);
  EXPECT_EQ(last(alice).type, proto::kSendErr);
  EXPECT_STREQ(last(alice).reason, "not logged in");

  // Every frame but the delivery is a control message: no headers.
  for (const auto* frames : {&alice, &bob}) {
    for (const auto& m : *frames) {
      if (m.type == proto::kDeliver) continue;
      EXPECT_TRUE(m.headers.empty()) << m.type;
      EXPECT_TRUE(m.body.empty()) << m.type;
    }
  }
}

TEST_F(ImWireTest, DeliveredImHoldsExactlyTheSendersHeaders) {
  auto alice = make_client("alice");
  auto bob = make_client("bob");
  login(*alice);
  login(*bob);
  alice->send_im("bob", "alert body",
                 {{"alert_id", "a-9"}, {"simba_kind", "alert"},
                  {"simba_requires_ack", "1"}},
                 nullptr);
  sim_.run_for(seconds(10));
  auto unread = bob->fetch_unread();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0].from_user, "alice");
  EXPECT_EQ(unread[0].to_user, "bob");
  EXPECT_EQ(items(unread[0].headers),
            (Headers{{"alert_id", "a-9"},
                     {"simba_kind", "alert"},
                     {"simba_requires_ack", "1"}}));
}

TEST_F(ImWireTest, BareFramesNeitherCrashNorCorruptState) {
  auto alice = make_client("alice");
  login(*alice);
  auto& frames = spy("spy");
  // Frames with no fields at all, to the server...
  const std::uint64_t ping = send("spy", server_.address(), proto::kPing);
  sim_.run_for(seconds(1));  // so the pong lands first
  send("spy", server_.address(), proto::kLogout);
  const std::uint64_t im = send("spy", server_.address(), proto::kSend);
  // ...and to alice's client.
  for (const char* type : {proto::kPong, proto::kLoginOk, proto::kSendErr}) {
    send("spy", "im.client.alice", type);
  }
  sim_.run_for(seconds(1));

  ASSERT_EQ(frames.size(), 2u);  // a logout has no reply
  EXPECT_EQ(frames[0].type, proto::kPong);
  EXPECT_EQ(frames[0].in_reply_to, ping);
  EXPECT_FALSE(frames[0].valid);
  EXPECT_EQ(frames[1].type, proto::kSendErr);
  EXPECT_EQ(frames[1].in_reply_to, im);
  EXPECT_STREQ(frames[1].reason, "not logged in");

  // The client dropped the three replies that answer nothing, and its
  // session is intact: still signed in, with the epoch it was given.
  EXPECT_EQ(alice->stats().get("unrequested_replies"), 3);
  EXPECT_TRUE(alice->is_logged_in());
  EXPECT_TRUE(server_.online("alice"));
  Status verify = Status::failure("pending");
  alice->verify_connection([&](Status s) { verify = std::move(s); });
  sim_.run_for(seconds(10));
  EXPECT_TRUE(verify.ok()) << verify.error();
}

TEST_F(ImWireTest, RefusalWithoutReasonReadsUnknown) {
  auto& frames = spy("spy.server");
  auto alice = std::make_unique<ImClientApp>(sim_, desktop_, bus_, "spy.server",
                                             "alice", gui::FaultProfile{});
  alice->launch();
  Status login = Status::failure("pending");
  alice->login([&](Status s) { login = std::move(s); });
  sim_.run_for(seconds(1));
  ASSERT_EQ(frames.size(), 1u);
  net::Message err;
  err.in_reply_to = frames[0].id;
  send("spy.server", "im.client.alice", proto::kLoginErr, std::move(err));
  sim_.run_for(seconds(1));
  EXPECT_EQ(login.error(), "login rejected: unknown");
  EXPECT_FALSE(alice->is_logged_in());
}

}  // namespace
}  // namespace simba::im
