// simba_perfbench: the repository benchmark's program.
//
//   simba_perfbench --workload portal_day|storm|chaos --seed N
//                   --seconds S --trace 0|1 [--spans-out FILE]
//
// One named workload runs in this process at one fleet thread. The
// inputs are a pure function of (workload, seed, seconds): --seconds
// fixes how many fleet chunks run, sized from each chunk's measured
// cost on a 4-vCPU x86-64 VM, so every count and simulated latency
// repeats exactly at a seed. Host times are rescaled by a host speed
// probe taken next to them (metrics.h). The benchmark reaches the program
// only through fleet::run_fleet with the run_*_shard bodies,
// fleet::UserWorld, fleet::FleetReport and util::Trace (NOTES.md lists
// them).
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics and writes the benchmark's own spans (around each
// call it makes into a layer) to --spans-out. Either way the last
// stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}, and the exit code is non-zero when a correctness check
// fails: an invariant violation, unbalanced alert accounting, a tail
// percentile with fewer than ten samples beyond it, or a chunk that
// re-ran to a different correctness hash.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fleet/chaos_workload.h"
#include "fleet/fleet.h"
#include "fleet/portal_workload.h"
#include "fleet/storm_workload.h"
#include "fleet/user_world.h"
#include "metrics.h"
#include "sim/chaos.h"
#include "util/trace.h"

using namespace simba;

namespace perfbench {
namespace {

// ---------------------------------------------------------------------
// Workloads. Every option is set here, none left to a struct default,
// so a later change to a default cannot change what is measured.

/// A UserWorldOptions with every field written out. The shard bodies
/// overwrite user, with_source, fault_horizon, chaos, track_invariants,
/// trace and storm_config; the option functions below set those to
/// the values the bodies use, so set-up builds exactly the run's
/// worlds.
fleet::UserWorldOptions world_options(fleet::ModelFidelity fidelity,
                                      Duration email_check_interval) {
  fleet::UserWorldOptions world;
  world.user = "user";
  world.fidelity = fidelity;
  world.email_check_interval = email_check_interval;
  world.with_source = false;
  world.faults = false;
  world.fault_horizon = days(1);
  world.chaos = sim::ChaosScenario::baseline();
  world.track_invariants = false;
  world.trace = false;
  world.overload = core::OverloadOptions{};
  world.bus_pending_bound = 0;
  world.storm_config = false;
  world.resume = nullptr;
  world.shared_invariants = nullptr;
  return world;
}

/// E9 as bench_portal_scale runs it: calibrated models, legacy portal
/// e-mail at 778k alerts / 225k users a day, lifecycle tracing on.
fleet::PortalWorkloadOptions portal_options() {
  fleet::PortalWorkloadOptions o;
  o.traffic = fleet::Traffic::kPortalEmail;
  o.alerts_per_user_day = 778000.0 / 225000.0;
  o.horizon = days(1);
  o.drain = hours(6);
  o.world = world_options(fleet::ModelFidelity::kCalibrated, minutes(60));
  o.world.with_source = false;
  o.world.fault_horizon = o.horizon;
  o.world.trace = true;
  return o;
}

/// E12 defended, with bench_storm's settings.
fleet::StormWorkloadOptions storm_options() {
  fleet::StormWorkloadOptions o;
  o.scenario = sim::ChaosScenario::baseline();
  o.horizon = hours(4);
  o.drain = hours(2);
  o.background_per_day = 48.0;
  o.critical_per_day = 600.0;
  o.sensor_cascades = 12;
  o.cascade_size = 150;
  o.cascade_spread = seconds(60);
  o.poll_bursts = 8;
  o.burst_size = 200;
  o.burst_spread = seconds(45);
  o.world = world_options(fleet::ModelFidelity::kFast, minutes(15));
  o.world.overload = fleet::storm_defenses();
  o.world.bus_pending_bound = 4096;
  o.world.with_source = true;
  o.world.storm_config = true;
  o.world.fault_horizon = o.horizon;
  o.world.chaos = o.scenario;
  o.world.track_invariants = true;
  o.world.trace = true;
  return o;
}

/// E10: fast models, a SIMBA-library source at 72 alerts a day, under
/// one named chaos preset.
fleet::ChaosWorkloadOptions chaos_options(const sim::ChaosScenario& preset) {
  fleet::ChaosWorkloadOptions o;
  o.scenario = preset;
  o.alerts_per_user_day = 72.0;
  o.horizon = hours(8);
  o.drain = hours(2);
  o.world = world_options(fleet::ModelFidelity::kFast, minutes(15));
  o.world.with_source = true;
  o.world.fault_horizon = o.horizon;
  o.world.chaos = o.scenario;
  o.world.track_invariants = true;
  o.world.trace = true;
  return o;
}

/// The chaos presets this benchmark runs, by name. Never presets():
/// that list grows when a preset is added.
const std::vector<std::string>& chaos_preset_names() {
  static const std::vector<std::string> names = {
      "flaky_network", "dup_storm", "crashy_daemon", "power_storms",
      "everything"};
  return names;
}

/// One kind of fleet the workload runs: its shard body, the world
/// options that body builds with, and its simulated length.
struct Kind {
  std::string name;
  fleet::ShardBody body;
  fleet::UserWorldOptions world;
  Duration horizon{};
  Duration drain{};
};

/// One run_fleet call.
struct Chunk {
  std::size_t kind = 0;
  std::uint64_t seed = 0;
  std::size_t worlds = 0;
};

struct Workload {
  std::string name;
  std::vector<Kind> kinds;
  std::vector<Chunk> chunks;
  bool has_critical = false;
};

/// Chunks for `seconds` of measurement: `rounds` rounds, each running
/// every kind once on `worlds` worlds, with at least `min_rounds` so
/// the tail percentiles keep ten samples beyond them. Chunk seeds are
/// shard_seed(seed, chunk index), so runs at neighbouring seeds share
/// no fleet.
std::vector<Chunk> plan_chunks(std::uint64_t seed, double seconds,
                               std::size_t kinds, std::size_t worlds,
                               double round_seconds, long min_rounds) {
  const long rounds =
      std::max(min_rounds, std::lround(seconds / round_seconds));
  std::vector<Chunk> chunks;
  for (long r = 0; r < rounds; ++r) {
    for (std::size_t k = 0; k < kinds; ++k) {
      const std::size_t index = chunks.size();
      chunks.push_back(Chunk{k, fleet::shard_seed(seed, index), worlds});
    }
  }
  return chunks;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, double seconds) {
  Workload w;
  w.name = name;
  if (name == "portal_day") {
    const fleet::PortalWorkloadOptions o = portal_options();
    w.kinds.push_back(Kind{"portal",
                           [o](const fleet::ShardTask& task) {
                             return fleet::run_portal_shard(task, o);
                           },
                           o.world, o.horizon, o.drain});
    // 10 worlds take ~0.2 s; 450 worlds give ~1,500 delivered alerts.
    w.chunks = plan_chunks(seed, seconds, 1, 10, 0.2, 45);
  } else if (name == "storm") {
    const fleet::StormWorkloadOptions o = storm_options();
    if (!o.scenario.empty()) return std::nullopt;
    w.kinds.push_back(Kind{"storm",
                           [o](const fleet::ShardTask& task) {
                             return fleet::run_storm_shard(task, o);
                           },
                           o.world, o.horizon, o.drain});
    // One 8-world fleet takes ~1.1 s and submits ~800 criticals.
    w.chunks = plan_chunks(seed, seconds, 1, 8, 1.1, 2);
    w.has_critical = true;
  } else if (name == "chaos") {
    for (const std::string& preset_name : chaos_preset_names()) {
      const sim::ChaosScenario preset = sim::ChaosScenario::preset(preset_name);
      // preset() falls back to baseline for an unknown name.
      if (preset.name != preset_name || preset.empty()) return std::nullopt;
      const fleet::ChaosWorkloadOptions o = chaos_options(preset);
      w.kinds.push_back(Kind{preset_name,
                             [o](const fleet::ShardTask& task) {
                               return fleet::run_chaos_shard(task, o);
                             },
                             o.world, o.horizon, o.drain});
    }
    // One round (8 worlds of each preset) takes ~0.5 s.
    w.chunks = plan_chunks(seed, seconds, w.kinds.size(), 8, 0.5, 8);
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------------
// Host timing and the benchmark's own spans.

double now_seconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

/// Spans the traced run records around its calls into the program.
/// Inactive (the untraced run), every call is a no-op.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool active) : active_(active) {}

  int begin(const char* name, int parent, int run) {
    if (!active_) return -1;
    BenchSpan span;
    span.name = name;
    span.parent = parent;
    span.run = run;
    span.start = now_seconds();
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }
  BenchSpan* end(int id) {
    if (id < 0) return nullptr;
    BenchSpan& span = spans_[static_cast<std::size_t>(id)];
    span.end = now_seconds();
    return &span;
  }
  const std::vector<BenchSpan>& spans() const { return spans_; }

 private:
  bool active_;
  std::vector<BenchSpan> spans_;
};

// ---------------------------------------------------------------------
// Running.

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t report_hash(const fleet::FleetReport& report) {
  return fnv1a(kFnvOffset, report.correctness_json());
}

/// Everything folded from the run's fleet reports. Each report is
/// destroyed before the next chunk runs, so peak memory is one
/// chunk's.
struct Totals {
  Counters counters;
  Summary delivery;
  Summary critical;
  std::uint64_t events = 0;
  std::uint64_t trace_spans = 0;
  std::size_t max_trace_bytes = 0;
  double world_days = 0.0;
  std::uint64_t hash = kFnvOffset;
  std::vector<ChunkTiming> timings;
  std::vector<std::uint64_t> chunk_hashes;
  // Traced run only: per "component.stage" span counts, and the
  // durations of the stages whose medians are reported.
  std::map<std::string, std::int64_t> stage_counts;
  std::map<std::string, Summary> stage_durations;
};

const std::vector<std::string>& timed_stages() {
  static const std::vector<std::string> stages = {"bus.deliver", "log.append",
                                                  "delivery.block"};
  return stages;
}

struct Bench {
  const Workload& workload;
  SpanRecorder& spans;
  bool traced = false;

  fleet::FleetReport run_chunk(std::size_t index, bool record, int parent) {
    const Chunk& chunk = workload.chunks[index];
    const Kind& kind = workload.kinds[chunk.kind];
    fleet::FleetOptions options;
    options.shards = chunk.worlds;
    options.threads = 1;
    options.base_seed = chunk.seed;
    const int run = static_cast<int>(index);
    if (!record) return fleet::run_fleet(options, kind.body);
    const int fleet_span = spans.begin("fleet.run_fleet", parent, run);
    const fleet::ShardBody body = [&](const fleet::ShardTask& task) {
      const int id = spans.begin("fleet.shard", fleet_span, run);
      fleet::ShardResult result = kind.body(task);
      BenchSpan* span = spans.end(id);
      span->events = static_cast<std::int64_t>(result.events_processed);
      span->alerts = result.counters.get("alerts.sent");
      span->trace_spans = static_cast<std::int64_t>(result.trace.size());
      return result;
    };
    fleet::FleetReport report = fleet::run_fleet(options, body);
    spans.end(fleet_span);
    return report;
  }

  /// Median host seconds to construct and destroy every world of the
  /// run. One pass takes milliseconds, so passes repeat until at least
  /// kMinSetupPasses ran and kMinSetupSeconds went by.
  double setup_seconds() {
    constexpr int kMinSetupPasses = 9;
    constexpr double kMinSetupSeconds = 0.25;
    std::vector<double> passes;
    const double begin = now_seconds();
    for (int pass = 0; pass < kMinSetupPasses ||
                       now_seconds() - begin < kMinSetupSeconds;
         ++pass) {
      const int pass_span = spans.begin("bench.setup", -1, pass);
      const double start = now_seconds();
      for (std::size_t c = 0; c < workload.chunks.size(); ++c) {
        const Chunk& chunk = workload.chunks[c];
        fleet::UserWorldOptions options = workload.kinds[chunk.kind].world;
        for (std::size_t i = 0; i < chunk.worlds; ++i) {
          options.user = "user" + std::to_string(i);
          const int id =
              spans.begin("fleet.world_build", pass_span, static_cast<int>(c));
          { const fleet::UserWorld world(fleet::shard_seed(chunk.seed, i),
                                         options); }
          spans.end(id);
        }
      }
      passes.push_back(now_seconds() - start);
      spans.end(pass_span);
    }
    return median_of(passes);
  }

  void fold(const fleet::FleetReport& report, std::size_t index, int parent,
            Totals& totals) {
    const int run = static_cast<int>(index);
    totals.counters.merge(report.counters);
    totals.delivery.merge(report.delivery_latency);
    totals.critical.merge(report.critical_latency);
    totals.events += report.events_processed;
    totals.trace_spans += report.trace.size();
    totals.max_trace_bytes =
        std::max(totals.max_trace_bytes, report_trace_bytes(report));
    const int json_span = spans.begin("fleet.correctness_json", parent, run);
    const std::uint64_t hash = report_hash(report);
    spans.end(json_span);
    totals.chunk_hashes.push_back(hash);
    totals.hash = fnv1a(totals.hash, std::string_view(
                                         reinterpret_cast<const char*>(&hash),
                                         sizeof(hash)));
    if (!traced) return;
    const int stage_span = spans.begin("util.stage_latency", parent, run);
    const std::map<std::string, Summary> stages = report.trace.stage_latency();
    spans.end(stage_span);
    for (const auto& [stage, summary] : stages) {
      totals.stage_counts[stage] += static_cast<std::int64_t>(summary.count());
    }
    for (const std::string& stage : timed_stages()) {
      const auto it = stages.find(stage);
      if (it != stages.end()) totals.stage_durations[stage].merge(it->second);
    }
  }
};

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<double> durations_of(const std::vector<BenchSpan>& spans,
                                 const std::string& name, double scale) {
  std::vector<double> out;
  for (const BenchSpan& span : spans) {
    if (span.name == name) out.push_back(span.duration() * scale);
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<BenchSpan>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const BenchSpan& s = spans[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%d,\"run\":%d,\"self_us\":%.3f,"
                 "\"events\":%" PRId64 ",\"alerts\":%" PRId64
                 ",\"trace_spans\":%" PRId64 "}\n",
                 i, s.name.c_str(), s.start * 1e6, s.end * 1e6, s.parent,
                 s.run, self[i] * 1e6, s.events, s.alerts, s.trace_spans);
  }
  return std::fclose(out) == 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') args.seconds = 0.0;
    } else if (flag == "--trace") {
      args.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || !have_seed ||
      !(args.seconds > 0.0 && args.seconds <= 3600.0) || args.trace < 0) {
    return std::nullopt;
  }
  return args;
}

int run(const Args& args) {
  const std::optional<Workload> built =
      make_workload(args.workload, args.seed, args.seconds);
  if (!built) {
    std::fprintf(stderr, "unknown or unpinned workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& workload = *built;
  const bool traced = args.trace == 1;
  SpanRecorder spans(traced);
  Bench bench{workload, spans, traced};

  std::size_t worlds = 0;
  for (const Chunk& chunk : workload.chunks) worlds += chunk.worlds;
  std::printf("workload=%s seed=%" PRIu64 " seconds=%g trace=%d chunks=%zu "
              "worlds=%zu\n",
              workload.name.c_str(), args.seed, args.seconds, args.trace,
              workload.chunks.size(), worlds);

  std::vector<double> probes = {probe_seconds()};
  const double setup_s = host_normalised(bench.setup_seconds(), probes.back());

  // The timed loop. A host speed probe runs before a chunk whenever
  // half a second has passed since the last one; each chunk's wall time
  // is rescaled by the latest probe. The traced run pairs every fourth
  // chunk with an untraced re-run, alternating which of the two runs
  // first (the pairs give the tracing overhead); the untraced run
  // re-runs chunk 0 at the end. Either way a re-run must reproduce its
  // chunk's correctness hash. Each report is destroyed before the next
  // run_fleet call.
  Totals totals;
  double last_probe = now_seconds();
  std::vector<double> overhead_us_per_day;
  bool reruns_match = true;
  for (std::size_t i = 0; i < workload.chunks.size(); ++i) {
    const Chunk& chunk = workload.chunks[i];
    const Kind& kind = workload.kinds[chunk.kind];
    const double days = world_days(chunk.worlds, kind.horizon, kind.drain);
    const bool paired = traced && i % 4 == 0;
    const bool untraced_first = paired && (i / 4) % 2 == 1;
    double again_wall = 0.0;
    std::uint64_t again_hash = 0;
    const auto rerun = [&] {
      const double start = now_seconds();
      const fleet::FleetReport again = bench.run_chunk(i, false, -1);
      again_wall = now_seconds() - start;
      again_hash = report_hash(again);
    };
    if (untraced_first) rerun();
    if (now_seconds() - last_probe >= 0.5) {
      probes.push_back(probe_seconds());
      last_probe = now_seconds();
    }
    const int chunk_span = spans.begin("bench.chunk", -1, static_cast<int>(i));
    double wall = 0.0;
    {
      const double start = now_seconds();
      const fleet::FleetReport report = bench.run_chunk(i, traced, chunk_span);
      wall = now_seconds() - start;
      bench.fold(report, i, chunk_span, totals);
    }
    spans.end(chunk_span);
    totals.timings.push_back(ChunkTiming{kind.name, wall, days, probes.back()});
    totals.world_days += days;
    if (paired && !untraced_first) rerun();
    if (paired) {
      overhead_us_per_day.push_back((wall - again_wall) * 1e6 / days);
      reruns_match = reruns_match && again_hash == totals.chunk_hashes[i];
    }
  }
  if (!traced) {
    const fleet::FleetReport again = bench.run_chunk(0, false, -1);
    reruns_match = report_hash(again) == totals.chunk_hashes[0];
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // --- Correctness -----------------------------------------------------
  const Counters& c = totals.counters;
  const Accounting acc = accounting(c);
  const Tail d50 = tail(totals.delivery, 50);
  const Tail d99 = tail(totals.delivery, 99);
  // critical_p99 is the p99 of the workload's most important alert
  // class: storm's high-importance stream, and every alert where, as in
  // portal_day and chaos, all alerts share one class.
  const Tail c99 =
      tail(workload.has_critical ? totals.critical : totals.delivery, 99);
  std::vector<std::string> problems;
  for (const char* key : {"invariant.violations.total",
                          "invariant.double_accounted",
                          "conservation.invented"}) {
    if (c.get(key) != 0) {
      problems.push_back(std::string(key) + " = " + std::to_string(c.get(key)));
    }
  }
  if (!acc.balanced()) problems.push_back("submitted != delivered + coalesced + failed");
  if (acc.submitted <= 0) problems.push_back("no alerts submitted");
  if (!d99.enough()) problems.push_back("delivery p99 has fewer than 10 samples beyond");
  if (!c99.enough()) {
    problems.push_back("critical p99 has fewer than 10 samples beyond");
  }
  if (!reruns_match) problems.push_back("a re-run chunk changed its correctness hash");

  std::printf("correctness_hash=%016" PRIx64 "\n", totals.hash);
  std::printf("alerts submitted=%" PRId64 " delivered=%" PRId64
              " coalesced=%" PRId64 " failed=%" PRId64 "\n",
              acc.submitted, acc.delivered, acc.coalesced, acc.failed);
  std::printf("delivery samples=%zu p99 beyond=%zu; critical samples=%zu "
              "p99 beyond=%zu\n",
              d99.samples, d99.beyond, c99.samples, c99.beyond);
  std::printf("events=%" PRIu64 " world_days=%.6g trace_spans=%" PRIu64 "\n",
              totals.events, totals.world_days, totals.trace_spans);
  // Raw chunk rates, before host normalisation, for reading the host.
  for (const Kind& kind : workload.kinds) {
    Summary rates;
    for (const ChunkTiming& t : totals.timings) {
      if (t.kind == kind.name) rates.add(t.wall_seconds * 1e6 / t.world_days);
    }
    std::printf("raw chunk us/world-day %-14s %s\n", kind.name.c_str(),
                rates.report("%.0f").c_str());
  }
  std::printf("probe ms: n=%zu median=%.3f (nominal %.3f)\n", probes.size(),
              median_of(probes) * 1e3, kProbeNominalSeconds * 1e3);

  // --- Metrics ---------------------------------------------------------
  const double wall = robust_wall_seconds(totals.timings);
  const PerUnit unit = per_unit(wall, totals.world_days, acc.submitted);
  std::vector<Metric> metrics;
  const double alerts = static_cast<double>(acc.submitted);
  if (!traced) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"wall_us_per_user_day", unit.us_per_user_day, "us"},
        {"wall_us_per_alert", unit.us_per_alert, "us"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"delivery_p50_sim_s", d50.value, "sim_s"},
        {"delivery_p99_sim_s", d99.value, "sim_s"},
        {"critical_p99_sim_s", c99.value, "sim_s"},
    };
  } else {
    const std::vector<BenchSpan>& all = spans.spans();
    const std::vector<double> self = self_times(all);
    std::vector<double> fleet_self_ms;
    double shard_seconds = 0.0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i].name == "fleet.run_fleet") fleet_self_ms.push_back(self[i] * 1e3);
      if (all[i].name == "fleet.shard") shard_seconds += all[i].duration();
    }
    Summary shard_ms;
    for (double ms : durations_of(all, "fleet.shard", 1e3)) shard_ms.add(ms);
    const auto count = [&totals](const char* stage) {
      const auto it = totals.stage_counts.find(stage);
      return it == totals.stage_counts.end() ? 0.0
                                             : static_cast<double>(it->second);
    };
    const auto p50_ms = [&totals](const char* stage) {
      const auto it = totals.stage_durations.find(stage);
      return it == totals.stage_durations.end() ? 0.0
                                                : it->second.median() * 1e3;
    };
    const double net_faults =
        static_cast<double>(c.get("chaos.duplicate") + c.get("chaos.reorder") +
                            c.get("chaos.delay_spike") +
                            c.get("dropped.chaos_late_loss"));
    const double host_faults = static_cast<double>(
        c.get("chaos.mab_crashes") + c.get("chaos.mab_hangs") +
        c.get("chaos.reboots") + c.get("power_losses"));
    metrics = {
        {"fleet.world_build_us",
         median_of(durations_of(all, "fleet.world_build", 1e6)), "us"},
        {"fleet.shard_ms_p50", shard_ms.percentile(50), "ms"},
        {"fleet.shard_ms_p95", shard_ms.percentile(95), "ms"},
        {"fleet.self_ms", median_of(fleet_self_ms), "ms"},
        {"sim.events_per_user_day", ratio(totals.events, totals.world_days),
         "count"},
        {"sim.events_per_alert", ratio(totals.events, alerts), "count"},
        {"sim.ns_per_event", ratio(shard_seconds * 1e9, totals.events), "ns"},
        {"sim.faults_injected", net_faults + host_faults, "count"},
        {"sim.net_faults_injected", net_faults, "count"},
        {"sim.in_flight_at_end",
         static_cast<double>(c.get("invariant.in_flight")), "count"},
        {"net.sends_per_alert", ratio(count("bus.send"), alerts), "count"},
        {"net.transit_p50_sim_ms", p50_ms("bus.deliver"), "sim_ms"},
        {"net.drops", count("bus.drop"), "count"},
        {"net.duplicates", count("bus.duplicate"), "count"},
        {"core.log_appends_per_alert", ratio(count("log.append"), alerts),
         "count"},
        {"core.mab_receives_per_alert", ratio(count("mab.receive"), alerts),
         "count"},
        {"core.duplicate_drops", count("mab.duplicate_drop"), "count"},
        {"core.log_append_sim_ms", p50_ms("log.append"), "sim_ms"},
        {"core.blocks_per_delivery",
         ratio(count("delivery.block"), count("delivery.deliver")), "count"},
        {"core.block_sim_s_p50", p50_ms("delivery.block") / 1e3, "sim_s"},
        {"core.action_fails", count("delivery.action_fail"), "count"},
        {"core.block_timeouts", count("delivery.block_timeout"), "count"},
        {"core.coalesce_ratio",
         ratio(static_cast<double>(acc.coalesced), alerts), "ratio"},
        {"core.shed_ratio",
         ratio(static_cast<double>(c.get("invariant.shed")), alerts), "ratio"},
        {"core.digests", static_cast<double>(c.get("coalesce.digests_emitted")),
         "count"},
        {"core.admission_over_limit",
         static_cast<double>(c.get("admission.over_limit")), "count"},
        {"core.critical_bypass",
         static_cast<double>(c.get("admission.critical_bypass")), "count"},
        {"core.mab_healthy_ratio",
         ratio(static_cast<double>(c.get("health.healthy")),
               static_cast<double>(c.get("health.samples"))),
         "ratio"},
        {"util.trace_spans_per_alert", ratio(totals.trace_spans, alerts),
         "count"},
        {"util.trace_mb", static_cast<double>(totals.max_trace_bytes) / 1048576.0,
         "MiB"},
        {"util.stage_latency_ms",
         median_of(durations_of(all, "util.stage_latency", 1e3)), "ms"},
        {"bench.trace_overhead_us_per_user_day", median_of(overhead_us_per_day),
         "us"},
        {"bench.probe_ms", median_of(probes) * 1e3, "ms"},
    };
    if (!args.spans_out.empty() && !write_spans(args.spans_out, all)) {
      problems.push_back("cannot write spans to " + args.spans_out);
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%-38s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: INCORRECT: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": %s}\n",
              problems.empty() ? "true" : "false", acc.submitted, acc.failed,
              json_metrics(metrics).c_str());
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Args> args =
      perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: simba_perfbench --workload portal_day|storm|chaos "
                 "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n");
    return 2;
  }
  return perfbench::run(*args);
}
