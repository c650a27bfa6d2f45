// Experiment K1 — event-kernel microbenchmark (DESIGN.md §12).
//
// Measures the simulation kernel in isolation, with no SIMBA models on
// top: one-shot schedule/fire throughput, schedule+cancel churn (the
// O(1) generation-checked cancel path), periodic every() re-arm cost,
// and label interning. Also reports the slab-pool footprint so the
// "allocation-light" claim is visible as data: a steady-state run must
// keep pool_slots() near the in-flight event count, not near the total
// event count.
//
// Wall timing only; the workloads themselves are deterministic. Run
// with --json PATH to record the metrics as BENCH_kernel.json.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "sim/simulator.h"
#include "util/flat_map.h"
#include "util/interner.h"
#include "util/strings.h"
#include "util/wall_clock.h"

using namespace simba;
using namespace simba::bench;

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv);
  const std::uint64_t one_shot_events =
      options.n > 0 ? static_cast<std::uint64_t>(options.n) : 2000000;

  print_header("K1: event-kernel microbenchmark",
               "kernel overhead must be negligible next to the models");
  JsonReport json;
  json.add("bench", std::string("bench_kernel"));
  json.add("scheduler", std::string(sim::Simulator::kScheduler));
  json.add("seed", static_cast<std::int64_t>(options.seed));

  // --- One-shot schedule/fire throughput ------------------------------------
  // kChains self-rescheduling chains keep exactly kChains events in
  // flight, so the slab pool must plateau at ~kChains slots no matter
  // how many total events fire.
  {
    constexpr int kChains = 512;
    sim::Simulator sim(options.seed);
    std::uint64_t budget = one_shot_events;
    std::function<void()> tick = [&] {
      if (budget > 0) {
        --budget;
        sim.after(micros(1), sim::Callback(tick), "bench.chain");
      }
    };
    for (int c = 0; c < kChains; ++c) {
      if (budget == 0) break;
      --budget;
      sim.after(micros(c), sim::Callback(tick), "bench.chain");
    }
    const util::WallTimer timer;
    sim.run();
    const double seconds = timer.seconds();
    const double rate = sim.events_processed() / std::max(seconds, 1e-9);
    print_section("one-shot schedule/fire");
    print_row("events fired", "-", std::to_string(sim.events_processed()));
    print_row("events per second", "-", strformat("%.0f", rate));
    print_row("pool slots / free", "-",
              strformat("%zu / %zu", sim.pool_slots(), sim.pool_free()),
              strformat("%d chains in flight", kChains));
    json.add("oneshot_events", sim.events_processed());
    json.add("oneshot_seconds", seconds);
    json.add("oneshot_events_per_sec", rate);
    json.add("oneshot_pool_slots", static_cast<std::int64_t>(sim.pool_slots()));
  }

  // --- Schedule + cancel churn ----------------------------------------------
  // Every round schedules a batch, cancels the odd half by EventId, and
  // drains. Cancelled entries are dropped at the heap head without
  // counting as processed, so fired == batch/2 per round.
  {
    constexpr std::uint64_t kBatch = 4096;
    const std::uint64_t rounds = std::max<std::uint64_t>(
        1, one_shot_events / (2 * kBatch));
    sim::Simulator sim(options.seed);
    std::vector<sim::EventId> ids;
    ids.reserve(kBatch);
    const util::WallTimer timer;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      ids.clear();
      for (std::uint64_t i = 0; i < kBatch; ++i) {
        ids.push_back(
            sim.after(micros(static_cast<std::int64_t>(i % 97)), [] {},
                      "bench.churn"));
      }
      for (std::uint64_t i = 1; i < kBatch; i += 2) sim.cancel(ids[i]);
      sim.run();
    }
    const double seconds = timer.seconds();
    const std::uint64_t ops = rounds * kBatch + rounds * (kBatch / 2);
    const double rate = ops / std::max(seconds, 1e-9);
    print_section("schedule + cancel churn");
    print_row("schedule/cancel ops", "-", std::to_string(ops),
              strformat("%llu fired",
                        static_cast<unsigned long long>(
                            sim.events_processed())));
    print_row("ops per second", "-", strformat("%.0f", rate));
    print_row("pool slots / free", "-",
              strformat("%zu / %zu", sim.pool_slots(), sim.pool_free()),
              "slots recycled across rounds");
    json.add("cancel_ops", ops);
    json.add("cancel_seconds", seconds);
    json.add("cancel_ops_per_sec", rate);
    json.add("cancel_pool_slots", static_cast<std::int64_t>(sim.pool_slots()));
  }

  // --- Periodic every() re-arm ----------------------------------------------
  // Steady-state periodic tasks re-arm their own pool slot, so the
  // whole phase runs in kTasks slots with zero per-tick allocation.
  {
    constexpr int kTasks = 256;
    sim::Simulator sim(options.seed);
    std::uint64_t ticks = 0;
    std::vector<sim::TaskHandle> tasks;
    tasks.reserve(kTasks);
    for (int t = 0; t < kTasks; ++t) {
      tasks.push_back(sim.every(millis(1 + t % 17), [&ticks] { ++ticks; },
                                "bench.periodic"));
    }
    const util::WallTimer timer;
    sim.run_for(seconds(static_cast<std::int64_t>(
        std::max<std::uint64_t>(1, one_shot_events / 500000))));
    const double wall = timer.seconds();
    const double rate = ticks / std::max(wall, 1e-9);
    for (sim::TaskHandle& task : tasks) task.cancel();
    print_section("periodic every() re-arm");
    print_row("periodic fires", "-", std::to_string(ticks),
              strformat("%d tasks", kTasks));
    print_row("fires per second", "-", strformat("%.0f", rate));
    print_row("pool slots / free", "-",
              strformat("%zu / %zu", sim.pool_slots(), sim.pool_free()),
              "one slot per live task");
    json.add("periodic_fires", ticks);
    json.add("periodic_seconds", wall);
    json.add("periodic_fires_per_sec", rate);
    json.add("periodic_pool_slots",
             static_cast<std::int64_t>(sim.pool_slots()));
  }

  // --- Label interning -------------------------------------------------------
  // The steady-state label path: repeated intern() of already-known
  // strings must be a single transparent set lookup, no allocation.
  {
    constexpr int kDistinct = 64;
    constexpr std::uint64_t kLookups = 1000000;
    util::StringInterner interner;
    std::vector<std::string> labels;
    labels.reserve(kDistinct);
    for (int i = 0; i < kDistinct; ++i) {
      labels.push_back("kernel.label." + std::to_string(i));
    }
    std::uintptr_t acc = 0;
    const util::WallTimer timer;
    for (std::uint64_t i = 0; i < kLookups; ++i) {
      acc += reinterpret_cast<std::uintptr_t>(
          interner.intern(labels[i % kDistinct]));
    }
    const double wall = timer.seconds();
    const double rate = kLookups / std::max(wall, 1e-9);
    print_section("label interning");
    print_row("intern() lookups", "-", std::to_string(kLookups),
              strformat("%zu distinct labels", interner.size()));
    print_row("lookups per second", "-", strformat("%.0f", rate));
    if (acc == 0) std::printf("  (impossible: null interned pointers)\n");
    json.add("intern_lookups", kLookups);
    json.add("intern_seconds", wall);
    json.add("intern_lookups_per_sec", rate);
  }

  // --- Flat-map hot-path mix ------------------------------------------------
  // The container workload behind Counters/MessageBus endpoints: a
  // bump/hit/miss mix over counter-style string keys, probed through
  // string_view (no per-lookup key allocation). The same program runs
  // against a std::map<.., std::less<>> reference so the open-addressing
  // win is visible as a ratio, not just an absolute rate.
  {
    // Sized like the per-world alert maps (portal sent_at, delivery
    // ack waiters), which hold thousands of live keys — deep enough
    // that the tree's log-n comparisons dominate the reference.
    constexpr int kDistinct = 4096;
    constexpr std::uint64_t kOps = 1000000;
    std::vector<std::string> keys;
    keys.reserve(kDistinct);
    for (int i = 0; i < kDistinct; ++i) {
      keys.push_back("portal.alert.stage." + std::to_string(i));
    }
    std::vector<std::string> misses;
    misses.reserve(kDistinct);
    for (int i = 0; i < kDistinct; ++i) {
      misses.push_back("portal.alert.absent." + std::to_string(i));
    }
    // Op schedule: 4 bumps : 3 hit-lookups : 1 miss-lookup, matching
    // the Counters::bump / bus route / partition-probe mix.
    const auto run_mix = [&](auto& map) -> std::int64_t {
      std::int64_t acc = 0;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        const std::size_t k = static_cast<std::size_t>(i) % kDistinct;
        switch (i & 7u) {
          case 0:
          case 2:
          case 4:
          case 6:
            map[keys[k]] += 1;
            break;
          case 7: {
            const auto it = map.find(std::string_view(misses[k]));
            acc += it == map.end() ? 1 : 0;
            break;
          }
          default: {
            const auto it = map.find(std::string_view(keys[k]));
            acc += it == map.end() ? 0 : it->second;
            break;
          }
        }
      }
      return acc;
    };

    util::FlatMap<std::string, std::int64_t> flat;
    const util::WallTimer flat_timer;
    const std::int64_t flat_acc = run_mix(flat);
    const double flat_wall = flat_timer.seconds();

    std::map<std::string, std::int64_t, std::less<>> ref;  // the baseline
    const util::WallTimer ref_timer;
    const std::int64_t ref_acc = run_mix(ref);
    const double ref_wall = ref_timer.seconds();

    const double flat_rate = kOps / std::max(flat_wall, 1e-9);
    const double ref_rate = kOps / std::max(ref_wall, 1e-9);
    print_section("flat-map bump/lookup/miss mix");
    print_row("map ops", "-", std::to_string(kOps),
              strformat("%d distinct keys", kDistinct));
    print_row("FlatMap ops per second", "-", strformat("%.0f", flat_rate));
    print_row("std::map ops per second", "-", strformat("%.0f", ref_rate),
              strformat("%.2fx speedup", flat_rate / std::max(ref_rate, 1e-9)));
    if (flat_acc != ref_acc) {
      std::printf("  (impossible: FlatMap/std::map mix disagree: %lld vs %lld)\n",
                  static_cast<long long>(flat_acc),
                  static_cast<long long>(ref_acc));
      return 1;
    }
    json.add("map_ops", kOps);
    json.add("map_seconds", flat_wall);
    json.add("map_ops_per_sec", flat_rate);
    json.add("map_ref_ops_per_sec", ref_rate);
  }

  const std::uint64_t rss = peak_rss_bytes();
  print_section("footprint");
  print_row("peak RSS", "-",
            strformat("%.1f MiB", rss / (1024.0 * 1024.0)));
  json.add("peak_rss_bytes", rss);

  if (!options.json.empty() && !json.write_to(options.json)) return 1;
  return 0;
}
