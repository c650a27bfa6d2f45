// Housekeeping allocates nothing: once a world is warm, its keepalives,
// sanity checks, sweeps and presence pings run without a single heap
// allocation (DESIGN.md §13, "The IM wire record").
//
// This binary replaces the global operator new / delete with versions
// that forward to malloc / free and count calls inside a measured
// window only, so it is its own test binary: nothing else may share
// the replacement.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "fleet/user_world.h"
#include "gui/desktop.h"
#include "im/im_client.h"
#include "im/im_server.h"
#include "net/bus.h"
#include "sim/simulator.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::int64_t> allocations{0};

/// Counts the operator-new calls `body` makes.
template <typename F>
std::int64_t allocations_in(F&& body) {
  allocations.store(0);
  counting.store(true);
  body();
  counting.store(false);
  return allocations.load();
}

}  // namespace

void* operator new(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC would otherwise see free() meet a pointer from
// operator new at the call site and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace simba {
namespace {

// A fleet user's world as the portal workload builds it (calibrated
// channels, hourly e-mail checks, tracing on), with no alert traffic.
// "user10" makes both of its IM clients' bus addresses longer than
// std::string's 15-character small buffer: "im.client.user10" and
// "im.client.user10.mab".
TEST(AllocTest, WarmHousekeepingHourAllocatesNothing) {
  fleet::UserWorldOptions options;
  options.user = "user10";
  options.trace = true;
  fleet::UserWorld world(42, options);
  // Warm-up: the first hour fills the kernel's event pool, the bus's
  // in-flight pool and every counter name.
  world.sim.run_for(hours(1));

  // 01:00 to 02:00: no digest (08:00), no rejuvenation (23:30, or at
  // the memory soft limit days away), no session reset or outage (the
  // world has no fault plans). Calibrated links lose 0.1% of messages,
  // and a lost ping is a timeout whose error text allocates; the
  // window below sees none, which the drop counter pins.
  const auto events = world.sim.events_processed();
  const std::int64_t lost = world.bus.stats().get("dropped.loss");
  const std::int64_t n = allocations_in([&] { world.sim.run_for(hours(1)); });
  ASSERT_EQ(world.bus.stats().get("dropped.loss"), lost);
  // The window is not idle: pings, presence, sweeps and sanity ticks.
  EXPECT_GT(world.sim.events_processed() - events, 1000u);
  EXPECT_EQ(n, 0);
}

// One keepalive round trip between a real client and server.
TEST(AllocTest, WarmPingPongRoundTripAllocatesNothing) {
  sim::Simulator sim(1);
  net::MessageBus bus(sim);
  gui::Desktop desktop(sim);
  im::ImServer server(sim, bus);
  server.register_account("user10.mab");
  im::ImClientApp client(sim, desktop, bus, server.address(), "user10.mab",
                         gui::FaultProfile{});
  client.launch();
  bool ok = false;
  client.login([&ok](Status status) { ok = status.ok(); });
  sim.run_for(seconds(5));
  ASSERT_TRUE(ok);

  // The first round trips create the pools, timers and counters.
  for (int i = 0; i < 3; ++i) {
    client.verify_connection([&ok](Status status) { ok = status.ok(); });
    sim.run_for(seconds(5));
  }

  ok = false;
  const std::int64_t n = allocations_in([&] {
    client.verify_connection([&ok](Status status) { ok = status.ok(); });
    sim.run_for(seconds(5));
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(server.stats().get("pings"), 4);
  EXPECT_EQ(n, 0);
}

}  // namespace
}  // namespace simba
