// Unit tests for the message bus: latency, loss, partitions, endpoint
// lifecycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/bus.h"
#include "sim/chaos.h"
#include "sim/simulator.h"

namespace simba::net {
namespace {

class BusTest : public ::testing::Test {
 protected:
  Message make(std::string_view from, std::string_view to) {
    Message m;
    m.from = bus_.intern(from);
    m.to = bus_.intern(to);
    m.type = "test";
    m.body = "hello";
    return m;
  }

  sim::Simulator sim_{1};
  MessageBus bus_{sim_};
};

TEST_F(BusTest, DeliversToAttachedEndpoint) {
  int received = 0;
  bus_.attach("b", [&](const Message& m) {
    EXPECT_EQ(m.body, "hello");
    EXPECT_EQ(bus_.name(m.from), "a");
    ++received;
  });
  bus_.send(make("a", "b"));
  sim_.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(bus_.stats().get("delivered"), 1);
}

TEST_F(BusTest, LatencyWithinConfiguredBounds) {
  bus_.set_default_link(LinkModel{millis(100), millis(50), 0.0});
  TimePoint arrival{};
  bus_.attach("b", [&](const Message&) { arrival = sim_.now(); });
  bus_.send(make("a", "b"));
  sim_.run();
  EXPECT_GE(arrival, kTimeZero + millis(100));
  EXPECT_LE(arrival, kTimeZero + millis(150));
}

TEST_F(BusTest, PerLinkOverride) {
  bus_.set_default_link(LinkModel{millis(10), Duration::zero(), 0.0});
  bus_.set_link("a", "b", LinkModel{seconds(2), Duration::zero(), 0.0});
  TimePoint ab{}, ba{};
  bus_.attach("a", [&](const Message&) { ba = sim_.now(); });
  bus_.attach("b", [&](const Message&) { ab = sim_.now(); });
  bus_.send(make("a", "b"));
  bus_.send(make("b", "a"));
  sim_.run();
  EXPECT_EQ(ab, kTimeZero + seconds(2));   // override applies one-way
  EXPECT_EQ(ba, kTimeZero + millis(10));   // reverse uses default
}

TEST_F(BusTest, TotalLossDropsEverything) {
  bus_.set_default_link(LinkModel{millis(10), Duration::zero(), 1.0});
  int received = 0;
  bus_.attach("b", [&](const Message&) { ++received; });
  for (int i = 0; i < 20; ++i) bus_.send(make("a", "b"));
  sim_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus_.stats().get("dropped.loss"), 20);
}

TEST_F(BusTest, UnattachedEndpointCountsUnreachable) {
  bus_.send(make("a", "ghost"));
  sim_.run();
  EXPECT_EQ(bus_.stats().get("dropped.unreachable"), 1);
}

TEST_F(BusTest, DetachMidFlightLosesMessage) {
  int received = 0;
  bus_.attach("b", [&](const Message&) { ++received; });
  bus_.send(make("a", "b"));
  bus_.detach("b");  // before delivery event fires
  sim_.run();
  EXPECT_EQ(received, 0);
  // A once-attached endpoint is "undeliverable", distinct from the
  // never-attached "unreachable" — so a crashed-client drop can't be
  // mistaken for a misaddressed message.
  EXPECT_EQ(bus_.stats().get("dropped.undeliverable"), 1);
  EXPECT_EQ(bus_.stats().get("dropped.unreachable"), 0);
}

TEST_F(BusTest, ReattachClearsUndeliverableState) {
  int received = 0;
  bus_.attach("b", [&](const Message&) { ++received; });
  bus_.detach("b");
  bus_.attach("b", [&](const Message&) { ++received; });
  bus_.send(make("a", "b"));
  sim_.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(bus_.stats().get("dropped.undeliverable"), 0);
}

TEST_F(BusTest, PartitionBlocksBothDirections) {
  int received = 0;
  bus_.attach("a", [&](const Message&) { ++received; });
  bus_.attach("b", [&](const Message&) { ++received; });
  bus_.partition("a", "b");
  EXPECT_TRUE(bus_.partitioned("a", "b"));
  EXPECT_TRUE(bus_.partitioned("b", "a"));
  bus_.send(make("a", "b"));
  bus_.send(make("b", "a"));
  sim_.run();
  EXPECT_EQ(received, 0);
  bus_.heal("a", "b");
  EXPECT_FALSE(bus_.partitioned("a", "b"));
  bus_.send(make("a", "b"));
  sim_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(BusTest, PartitionAppliedAtArrivalTime) {
  // A partition that begins while the message is in flight eats it.
  bus_.set_default_link(LinkModel{seconds(1), Duration::zero(), 0.0});
  int received = 0;
  bus_.attach("b", [&](const Message&) { ++received; });
  bus_.send(make("a", "b"));
  sim_.after(millis(500), [&] { bus_.partition("a", "b"); });
  sim_.run();
  EXPECT_EQ(received, 0);
}

TEST_F(BusTest, NestedPartitionsNeedMatchingHeals) {
  bus_.partition("a", "b");
  bus_.partition("a", "b");
  bus_.heal("a", "b");
  EXPECT_TRUE(bus_.partitioned("a", "b"));
  bus_.heal("a", "b");
  EXPECT_FALSE(bus_.partitioned("a", "b"));
}

TEST_F(BusTest, HealWithoutPartitionIsSafe) {
  bus_.heal("a", "b");
  EXPECT_FALSE(bus_.partitioned("a", "b"));
  EXPECT_EQ(bus_.stats().get("heal.unmatched"), 1);
}

TEST_F(BusTest, UnmatchedHealDoesNotUnderflowNestingCount) {
  // Spurious heals must not leave a negative count behind that a later
  // partition would cancel against, severing the link permanently.
  bus_.heal("a", "b");
  bus_.heal("a", "b");
  EXPECT_EQ(bus_.stats().get("heal.unmatched"), 2);

  bus_.partition("a", "b");
  EXPECT_TRUE(bus_.partitioned("a", "b"));
  bus_.heal("a", "b");
  EXPECT_FALSE(bus_.partitioned("a", "b"));
  int received = 0;
  bus_.attach("b", [&](const Message&) { ++received; });
  bus_.send(make("a", "b"));
  sim_.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(bus_.stats().get("heal.unmatched"), 2);  // matched heal is silent
}

TEST_F(BusTest, MessageIdsIncrease) {
  bus_.attach("b", [](const Message&) {});
  const auto id1 = bus_.send(make("a", "b"));
  const auto id2 = bus_.send(make("a", "b"));
  EXPECT_LT(id1, id2);
}

TEST_F(BusTest, AttachReplacesHandler) {
  int first = 0, second = 0;
  bus_.attach("b", [&](const Message&) { ++first; });
  bus_.attach("b", [&](const Message&) { ++second; });
  bus_.send(make("a", "b"));
  sim_.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST_F(BusTest, HeadersSurviveTransit) {
  Message m = make("a", "b");
  m.headers["alert_id"] = "x-1";
  std::string got;
  bus_.attach("b", [&](const Message& r) { got = r.headers.at("alert_id"); });
  bus_.send(std::move(m));
  sim_.run();
  EXPECT_EQ(got, "x-1");
}

// --- Interned endpoints ----------------------------------------------------

TEST_F(BusTest, InternIsStableAndNamesResolve) {
  const Address a = bus_.intern("a");
  EXPECT_EQ(bus_.intern("a"), a);
  EXPECT_NE(bus_.intern("b"), a);
  EXPECT_EQ(bus_.name(a), "a");
  // The zero id is the empty name, and nothing is attached there.
  EXPECT_EQ(bus_.intern(""), Address{});
  EXPECT_FALSE(bus_.attached(Address{}));
}

TEST_F(BusTest, RestoredStatsKeepCounting) {
  bus_.attach("b", [](const Message&) {});
  bus_.send(make("a", "b"));
  sim_.run();
  // The bus's bag has filed "sent" and then "delivered". A checkpointed
  // bag holds them the other way round, behind another entry; after
  // restore_stats the bus's bumps must land in the restored entries.
  Counters saved;
  saved.bump("heal.unmatched", 7);
  saved.bump("delivered", 40);
  saved.bump("sent", 50);
  bus_.restore_stats(saved);
  bus_.send(make("a", "b"));
  sim_.run();
  EXPECT_EQ(bus_.stats().get("sent"), 51);
  EXPECT_EQ(bus_.stats().get("delivered"), 41);
  EXPECT_EQ(bus_.stats().get("heal.unmatched"), 7);
  EXPECT_EQ(bus_.stats().all().size(), 3u);
}

TEST_F(BusTest, DropsByIdKeepTheirMeanings) {
  const Address never = bus_.intern("never");
  const Address gone = bus_.intern("gone");
  bus_.attach(gone, [](const Message&) {});
  bus_.detach(gone);
  Message m = make("a", "b");
  m.to = never;
  bus_.send(Message(m));
  m.to = gone;
  bus_.send(Message(m));
  sim_.run();
  EXPECT_EQ(bus_.stats().get("dropped.unreachable"), 1);
  EXPECT_EQ(bus_.stats().get("dropped.undeliverable"), 1);
  EXPECT_EQ(bus_.stats().get("delivered"), 0);
}

TEST_F(BusTest, PartitionSetByNameDropsTrafficById) {
  int received = 0;
  // Partitioned before either side interned its address.
  bus_.partition("x", "y");
  bus_.attach("x", [&](const Message&) { ++received; });
  bus_.attach("y", [&](const Message&) { ++received; });
  bus_.send(make("x", "y"));
  bus_.send(make("y", "x"));
  sim_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus_.stats().get("dropped.partition"), 2);
}

// A handler acting on the bus while it runs. Its closure reads its own
// captures after acting, so under ASan a handler destroyed or moved
// mid-call is a use-after-free. Closures that capture a std::string
// live on the heap (libstdc++ stores only trivially copyable targets
// of at most 16 B inline): destroying one frees it. A (this, pointer)
// closure lives inside the std::function: moving the table's rows
// frees it.

TEST_F(BusTest, HandlerMayDetachItsOwnAddress) {
  std::vector<std::string> seen;
  const std::string tag(64, 'd');
  bus_.attach("b", [this, &seen, tag](const Message&) {
    bus_.detach("b");
    seen.push_back(tag);
  });
  bus_.send(make("a", "b"));
  sim_.run();
  bus_.send(make("a", "b"));
  sim_.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], tag);
  EXPECT_FALSE(bus_.attached("b"));
  EXPECT_EQ(bus_.stats().get("dropped.undeliverable"), 1);
}

TEST_F(BusTest, HandlerMayReattachItsOwnAddress) {
  // A client restart from inside its own message handler.
  std::vector<std::string> seen;
  const std::string tag(64, 'o');
  bus_.attach("b", [this, &seen, tag](const Message&) {
    bus_.detach("b");
    bus_.attach("b", [&seen](const Message&) { seen.push_back("new"); });
    seen.push_back(tag);
  });
  bus_.send(make("a", "b"));
  sim_.run();
  bus_.send(make("a", "b"));
  sim_.run();
  EXPECT_EQ(seen, (std::vector<std::string>{tag, "new"}));
  EXPECT_EQ(bus_.stats().get("dropped.undeliverable"), 0);
}

TEST_F(BusTest, HandlerMayGrowTheEndpointTable) {
  int calls = 0;
  int grown = 0;
  bus_.attach("b", [this, counter = &calls](const Message&) {
    for (int i = 0; i < 1000; ++i) {
      bus_.attach(std::to_string(i), [](const Message&) {});
    }
    ++*counter;
  });
  bus_.attach("999", [&grown](const Message&) { ++grown; });
  bus_.send(make("a", "b"));
  sim_.run();
  bus_.send(make("a", "b"));
  bus_.send(make("a", "999"));
  sim_.run();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(grown, 0);  // the handler re-attached "999" with its own
  EXPECT_EQ(bus_.stats().get("delivered"), 3);
}

// --- Chaos injection (sim/chaos.h) -----------------------------------------

sim::NetChaosAxis always(TimePoint until) {
  sim::NetChaosAxis axis;
  axis.probability = 1.0;
  axis.window_end = until;
  return axis;
}

TEST_F(BusTest, ChaosDuplicateDeliversSameMessageTwice) {
  sim::NetChaosConfig chaos;
  chaos.duplicate = always(kTimeZero + hours(1));
  bus_.set_chaos(chaos, sim_.make_rng("chaos.net"));
  std::vector<std::uint64_t> arrivals;
  bus_.attach("b", [&](const Message& m) { arrivals.push_back(m.id); });
  const std::uint64_t id = bus_.send(make("a", "b"));
  sim_.run();
  ASSERT_EQ(arrivals.size(), 2u) << "at-least-once duplicate missing";
  EXPECT_EQ(arrivals[0], id);
  EXPECT_EQ(arrivals[1], id);
  EXPECT_EQ(bus_.stats().get("chaos.duplicate"), 1);
}

TEST_F(BusTest, ChaosLateLossDropsAtArrivalTime) {
  sim::NetChaosConfig chaos;
  chaos.late_loss = always(kTimeZero + hours(1));
  bus_.set_chaos(chaos, sim_.make_rng("chaos.net"));
  int received = 0;
  bus_.attach("b", [&](const Message&) { ++received; });
  bus_.send(make("a", "b"));
  sim_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus_.stats().get("dropped.chaos_late_loss"), 1);
}

TEST_F(BusTest, ChaosDelaySpikeStretchesLatency) {
  bus_.set_default_link(LinkModel{millis(10), Duration::zero(), 0.0});
  sim::NetChaosConfig chaos;
  chaos.delay_spike = always(kTimeZero + hours(1));
  chaos.delay_spike.magnitude = seconds(30);
  bus_.set_chaos(chaos, sim_.make_rng("chaos.net"));
  TimePoint arrival{};
  bus_.attach("b", [&](const Message&) { arrival = sim_.now(); });
  bus_.send(make("a", "b"));
  sim_.run();
  EXPECT_GT(arrival, kTimeZero + millis(10));
  EXPECT_EQ(bus_.stats().get("chaos.delay_spike"), 1);
}

TEST_F(BusTest, ChaosInactiveOutsideItsWindow) {
  sim::NetChaosConfig chaos;
  chaos.duplicate = always(kTimeZero + seconds(1));
  bus_.set_chaos(chaos, sim_.make_rng("chaos.net"));
  int received = 0;
  bus_.attach("b", [&](const Message&) { ++received; });
  sim_.at(kTimeZero + seconds(5), [&] { bus_.send(make("a", "b")); });
  sim_.run();
  EXPECT_EQ(received, 1);  // no duplicate: the window closed at 1 s
  EXPECT_EQ(bus_.stats().get("chaos.duplicate"), 0);
}

// Parameterized loss-rate sweep: observed loss should track the model.
class BusLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(BusLossSweep, ObservedLossTracksModel) {
  sim::Simulator sim(42);
  MessageBus bus(sim);
  bus.set_default_link(LinkModel{millis(1), Duration::zero(), GetParam()});
  int received = 0;
  bus.attach("b", [&](const Message&) { ++received; });
  const int n = 2000;
  Message proto;
  proto.from = bus.intern("a");
  proto.to = bus.intern("b");
  proto.type = "t";
  for (int i = 0; i < n; ++i) {
    bus.send(Message(proto));
  }
  sim.run();
  const double observed = 1.0 - static_cast<double>(received) / n;
  EXPECT_NEAR(observed, GetParam(), 0.03);
}

INSTANTIATE_TEST_SUITE_P(LossRates, BusLossSweep,
                         ::testing::Values(0.0, 0.05, 0.25, 0.5, 0.9));

// ---------------------------------------------------------------------------
// In-flight message pool (DESIGN.md §13)
// ---------------------------------------------------------------------------

TEST_F(BusTest, InflightPoolPlateausAndRecycles) {
  int received = 0;
  bus_.attach("b", [&](const Message&) { ++received; });
  // Waves of concurrent traffic: the pool must grow to one wave's
  // width, then recycle those same slots for every later wave instead
  // of growing without bound.
  const int kWaves = 50;
  const int kPerWave = 8;
  for (int wave = 0; wave < kWaves; ++wave) {
    sim_.after(millis(100.0 * wave), [&] {
      for (int i = 0; i < kPerWave; ++i) bus_.send(make("a", "b"));
    });
  }
  sim_.run();
  EXPECT_EQ(received, kWaves * kPerWave);
  EXPECT_LE(bus_.inflight_slots(), static_cast<std::size_t>(kPerWave));
  // Quiescent bus: every slot back on the free list.
  EXPECT_EQ(bus_.inflight_free(), bus_.inflight_slots());
}

TEST_F(BusTest, PooledMessageSurvivesReentrantSendFromHandler) {
  // A handler that sends while its own message is still pooled: the
  // nested send may grow the pool, and the outer message (a deque
  // slot reference) must stay intact through it.
  std::vector<std::string> bodies;
  bus_.attach("b", [&](const Message& m) {
    if (m.body == "first") {
      for (int i = 0; i < 4; ++i) {
        Message nested = make("b", "c");
        nested.body = "nested";
        bus_.send(std::move(nested));
      }
    }
    bodies.push_back(m.body);
  });
  bus_.attach("c", [&](const Message& m) { bodies.push_back(m.body); });
  Message first = make("a", "b");
  first.body = "first";
  bus_.send(std::move(first));
  sim_.run();
  ASSERT_EQ(bodies.size(), 5u);
  EXPECT_EQ(bodies[0], "first");
  for (std::size_t i = 1; i < bodies.size(); ++i) {
    EXPECT_EQ(bodies[i], "nested");
  }
  EXPECT_EQ(bus_.inflight_free(), bus_.inflight_slots());
}

TEST_F(BusTest, ChaosDuplicateOccupiesItsOwnSlot) {
  sim::NetChaosConfig chaos;
  chaos.duplicate.probability = 1.0;  // always-on duplication window
  chaos.duplicate.window_start = kTimeZero;
  chaos.duplicate.window_end = kTimeZero + hours(1);
  bus_.set_chaos(chaos, sim_.make_rng("chaos.net"));
  int received = 0;
  bus_.attach("b", [&](const Message& m) {
    EXPECT_EQ(m.body, "hello");
    ++received;
  });
  bus_.send(make("a", "b"));
  sim_.run();
  EXPECT_EQ(received, 2);  // original + duplicate, both intact
  EXPECT_EQ(bus_.stats().get("chaos.duplicate"), 1);
  EXPECT_EQ(bus_.inflight_free(), bus_.inflight_slots());
}

}  // namespace
}  // namespace simba::net
