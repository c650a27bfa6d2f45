// Shared experiment harness for the SIMBA benchmarks.
//
// Unlike tests/test_world.h (fast loss-free models), this wires the
// REALISTIC models calibrated against the paper's Section 5 numbers:
//   * IM hop latency ~150-450 ms  => one-way source->MAB "< 1 second"
//   * pessimistic log write 250 ms => acknowledged in "about 1.5 s"
//   * MAB processing ~600 ms      => proxy->user routing "2.5 s"
//   * email seconds-to-days mixture, SMS carrier unpredictability
//
// Every bench binary prints "paper vs measured" rows through the
// helpers at the bottom.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mab_host.h"
#include "core/source_endpoint.h"
#include "core/user_endpoint.h"
#include "email/email_server.h"
#include "im/im_server.h"
#include "net/bus.h"
#include "sim/simulator.h"
#include "sms/sms.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/time.h"

namespace simba::bench {

/// Command-line: --seed, --n (workload size), --users, --threads,
/// --trace-jsonl, and --json, each accepted as "--flag=V" or
/// "--flag V", in any order; unknown flags are ignored so harness
/// wrappers can pass extras. The checkpoint/resume flags switch the
/// benches that support them (bench_portal_scale, bench_fault_month)
/// into the resumable fleet driver (fleet/resume.h); without any of
/// them the legacy single-run output is byte-identical to before.
struct Options {
  std::uint64_t seed = 42;
  int n = 0;        // 0 = bench-specific default
  int users = 0;    // 0 = bench-specific default (fleet shard count)
  int threads = 1;  // fleet worker threads; 1 = serial
  /// Non-empty: write the merged lifecycle trace as sorted JSONL here
  /// (benches that trace; see fleet::FleetReport::trace).
  std::string trace_jsonl;
  /// Non-empty: also write the machine-readable metrics (the
  /// JsonReport the bench builds) to this path.
  std::string json;

  // --- Checkpoint / resume (resumable benches only) -------------------------
  /// > 0: run the resumable driver with this many epochs instead of
  /// the bench's legacy single run.
  int epochs = 0;
  /// > 0: cut a checkpoint image once this many epochs have completed
  /// (fleet::ResumeControl::checkpoint_after_epoch).
  int checkpoint_every = 0;
  /// Die at the checkpoint instead of continuing — the "B" leg of the
  /// cross-process round-trip (tools/resume_roundtrip.py).
  bool stop_at_checkpoint = false;
  /// Non-empty: write the cut checkpoint image to this path.
  std::string checkpoint_path;
  /// Non-empty: decode this image and run the remaining epochs — the
  /// "C" leg of the round-trip.
  std::string resume_from;

  static Options parse(int argc, char** argv);
};

/// Peak resident set size of this process so far, in bytes (Linux
/// ru_maxrss). Timing/footprint-only — never fold into deterministic
/// output.
std::uint64_t peak_rss_bytes();

/// The headline cost of a fleet run, as perfbench reports it: wall
/// time per simulated world-day, where `worlds` worlds that each ran
/// for `run_length` (horizon + drain) make worlds × run_length / 24 h
/// world-days, and wall time per submitted alert (0 when none were).
/// Timing-only, like peak_rss_bytes().
struct WallCost {
  double us_per_user_day = 0.0;
  double us_per_alert = 0.0;
};
WallCost wall_cost(double wall_seconds, std::size_t worlds,
                   Duration run_length, std::int64_t alerts);

/// Insertion-ordered flat JSON object for bench metrics; just enough
/// for the BENCH_*.json artifacts (numbers and plain strings).
class JsonReport {
 public:
  void add(const std::string& key, double value);
  void add(const std::string& key, std::int64_t value);
  void add(const std::string& key, std::uint64_t value);
  void add(const std::string& key, int value) {
    add(key, static_cast<std::int64_t>(value));
  }
  void add(const std::string& key, const std::string& value);

  std::string render() const;
  /// Writes render() to `path`; returns false (with a stderr note) on
  /// I/O failure.
  bool write_to(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;  // key -> literal
};

/// Calibrated infrastructure.
struct ExperimentWorld {
  explicit ExperimentWorld(std::uint64_t seed);

  sim::Simulator sim;
  net::MessageBus bus;
  im::ImServer im_server;
  email::EmailServer email_server;
  sms::SmsGateway sms_gateway;
};

/// The standard experiment cast: Victor (user), his buddy, and the
/// standard category/mode configuration used across experiments.
struct Cast {
  Cast(ExperimentWorld& world, core::MabHostOptions host_options = {},
       core::UserEndpointOptions user_options = {});

  std::unique_ptr<core::SourceEndpoint> make_source(
      ExperimentWorld& world, const std::string& name,
      Duration im_block_timeout = seconds(45));

  std::unique_ptr<core::UserEndpoint> user;
  std::unique_ptr<core::MabHost> host;
};

/// Standard user config: addresses, Urgent/Casual/SmsFirst modes,
/// classifier rules for all five source types, category aggregation.
core::MabConfig standard_config(const std::string& owner,
                                const std::string& sms_address,
                                const std::string& email_address);

/// Default MAB behavioral knobs for experiments (processing delay etc.).
core::MabOptions experiment_mab_options();

/// Mildly flaky client profile for the buddy's desktop, calibrated for
/// the one-month fault log (experiment E6).
gui::FaultProfile buddy_im_client_profile();
gui::FaultProfile buddy_email_client_profile();

// --- Reporting -------------------------------------------------------------

void print_header(const std::string& experiment_id,
                  const std::string& paper_claim);
void print_row(const std::string& metric, const std::string& paper,
               const std::string& measured, const std::string& note = "");
void print_summary_seconds(const std::string& metric, const std::string& paper,
                           const Summary& summary);
void print_section(const std::string& title);

}  // namespace simba::bench
