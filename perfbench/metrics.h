// The benchmark's own arithmetic: tail percentiles with a sample-count
// rule, normalisation per simulated world-day and per alert, the host
// speed probe and the robust wall-time estimate built on it, alert
// accounting, span self times, the bytes a fleet report's traces hold,
// and the correctness hash. Kept apart from main.cc so
// perfbench/metrics_test.cc can check each rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/fleet.h"
#include "util/stats.h"
#include "util/time.h"
#include "util/trace.h"

namespace perfbench {

/// A reported tail percentile needs at least this many samples
/// strictly above it; a smaller run is refused rather than reported.
inline constexpr std::size_t kMinSamplesBeyond = 10;

struct Tail {
  double value = 0.0;
  std::size_t samples = 0;
  /// Samples strictly greater than `value`.
  std::size_t beyond = 0;
  bool enough() const { return beyond >= kMinSamplesBeyond; }
};

/// `summary.percentile(p)` (the repository's interpolated rank rule)
/// together with the number of samples that lie beyond it.
Tail tail(const simba::Summary& summary, double p);

/// One world simulated for `horizon + drain`, in simulated days.
double world_days(std::size_t worlds, simba::Duration horizon,
                  simba::Duration drain);

struct PerUnit {
  double us_per_user_day = 0.0;
  double us_per_alert = 0.0;
};

/// Wall seconds spread over simulated world-days and submitted alerts,
/// in microseconds per unit.
PerUnit per_unit(double wall_seconds, double world_days,
                 std::int64_t alerts);

/// Host speed probe: a fixed discrete-event loop shaped like the
/// simulator's hot path (std::function handlers popped from a priority
/// queue, each growing one of 60,000 strings in a hash map, a few MiB,
/// and scheduling follow-ups). Returns its wall seconds. The host this
/// benchmark was sized on switches between states in which the program
/// runs up to 1.8x apart for minutes at a time; this probe slows with
/// it, while tight arithmetic loops and pointer chases do not
/// (NOTES.md).
double probe_seconds();

/// The probe's wall time on the host the benchmark was sized on, in its
/// usual (slower) state. Host-normalised times read as wall times on
/// that host in that state.
inline constexpr double kProbeNominalSeconds = 0.018;

/// `seconds` measured next to a probe that took `probe`, rescaled to a
/// host on which the probe takes kProbeNominalSeconds.
double host_normalised(double seconds, double probe);

/// One timed run_fleet call, and the probe taken just before it.
/// Chunks of one `kind` run the same per-world settings, so their wall
/// time per world-day estimates one cost.
struct ChunkTiming {
  std::string kind;
  double wall_seconds = 0.0;
  double world_days = 0.0;
  double probe_seconds = kProbeNominalSeconds;
};

/// Host-normalised wall time of all chunks, with each kind's cost per
/// world-day taken as the median over that kind's chunks of
/// host_normalised(wall, probe) / world_days, times the kind's
/// world-days. A host episode then moves only the chunks it overlaps,
/// and a host state the probe follows moves neither.
double robust_wall_seconds(const std::vector<ChunkTiming>& chunks);

/// Where every submitted alert ended, from the merged counters.
/// failed counts alerts the user never saw, directly or in a digest,
/// by the end of the drain.
struct Accounting {
  std::int64_t submitted = 0;
  std::int64_t delivered = 0;
  std::int64_t coalesced = 0;
  std::int64_t failed = 0;
  bool balanced() const {
    return submitted == delivered + coalesced + failed;
  }
};

/// Workloads with an InvariantChecker (storm, chaos) are read from the
/// invariant.* buckets: failed = failed + shed + in_flight. The portal
/// world has no checker and is read from alerts.sent / delivered /
/// lost. alerts.lost is never used with a checker present, because it
/// also counts coalesced alerts.
Accounting accounting(const simba::Counters& counters);

/// One span the benchmark records around its own call into a layer.
/// Times are host seconds since the recorder started; parent is an
/// index into the same list, or -1 for a root.
struct BenchSpan {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int run = 0;
  std::int64_t events = 0;
  std::int64_t alerts = 0;
  std::int64_t trace_spans = 0;
  double duration() const { return end - start; }
};

/// Per span: its duration minus the part of its interval covered by
/// its direct children (overlapping children are counted once).
std::vector<double> self_times(const std::vector<BenchSpan>& spans);

/// Heap bytes a std::string owns outside its own object (0 when the
/// characters sit in the small-string buffer).
std::size_t out_of_line_bytes(const std::string& text);

/// Span slots * sizeof(util::Span) plus every span's out-of-line
/// alert_id and detail bytes.
std::size_t trace_bytes(const simba::util::Trace& trace);

/// trace_bytes over the report's merged trace and every per-shard one.
std::size_t report_trace_bytes(const simba::fleet::FleetReport& report);

/// 64-bit FNV-1a, chainable: fnv1a(fnv1a(kFnvOffset, a), b).
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes);

}  // namespace perfbench
