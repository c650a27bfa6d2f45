// Deterministic alert-lifecycle tracing.
//
// A Trace is an append-only list of Spans, each stamped with virtual
// time only (the simulator clock) so that a fixed seed and scenario
// produce a byte-identical trace on every run, on every platform, at
// every fleet thread count. Components hold a `Trace*` (null means
// tracing is off) and emit spans at the interesting points of an
// alert's lifecycle: bus send/deliver and chaos injections, log
// append/ack/recovery, MAB classify → aggregate → filter → route, and
// delivery-engine block/action attempts with fallback and skip
// reasons.
//
// Like Counters/Summary, traces merge: fleet shards each record their
// own Trace and run_fleet moves them together in shard order, so the
// merged trace is independent of the thread count.
// Export is canonical sorted JSONL (integer microsecond timestamps,
// no floats) — the format the golden-trace tests byte-compare.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"
#include "util/time.h"

namespace simba::util {

/// One lifecycle event. `component` and `stage` MUST have static
/// storage duration (string literals, or Trace::label for labels read
/// at run time): spans copy only the pointer, which keeps emission
/// allocation-light and makes any trace, or copy of one, safe to
/// outlive the emitting component. Instant events have start == end;
/// stages with real latency (log write, bus transit, delivery blocks)
/// carry their duration as [start, end].
struct Span {
  std::string alert_id;  // empty for non-alert traffic (sign-in, sweeps)
  const char* component = "";
  const char* stage = "";
  TimePoint start{};
  TimePoint end{};
  std::string detail;

  Duration duration() const { return end - start; }
};

class Trace {
 public:
  /// Instant event at `at`.
  void emit(std::string alert_id, const char* component, const char* stage,
            TimePoint at, std::string detail = {});
  /// Event spanning [start, end].
  void emit(std::string alert_id, const char* component, const char* stage,
            TimePoint start, TimePoint end, std::string detail = {});

  /// A static-storage copy of a label read at run time (checkpoint
  /// decode), for emit(). One process-wide table, so the label lives
  /// as long as a string literal would.
  static const char* label(std::string_view text);

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }
  bool empty() const { return spans_.empty(); }

  /// Moves `other`'s spans onto the end of this trace; `other` ends
  /// empty with its storage released. Merging shard traces in shard
  /// order yields the same span sequence for any thread count, exactly
  /// like Counters::merge / Summary::merge.
  void merge(Trace&& other);

  /// Spans in canonical order: (start, alert_id, component, stage,
  /// end, detail), stable for full ties. Emission order within a shard
  /// is deterministic, so this order is too.
  std::vector<Span> sorted_spans() const;

  /// Canonical export: one JSON object per line, sorted_spans() order,
  /// integer microsecond timestamps only — byte-identical across runs,
  /// platforms, and fleet thread counts for a fixed seed + scenario.
  /// {"t":1500000,"dur":250000,"alert":"s0-1","comp":"log",
  ///  "stage":"append","detail":"fresh"}
  std::string to_jsonl() const;

  /// Per-stage latency distributions keyed "component.stage", over
  /// span durations in seconds (instant spans contribute 0).
  // simba-lint: ordered (report-time; callers print stages sorted)
  std::map<std::string, Summary> stage_latency() const;

  /// Human-oriented per-stage latency table (one stage per line), for
  /// the bench report sections.
  std::string stage_report() const;

  /// Multi-line lifecycle listing of one alert's spans in canonical
  /// order, for invariant-failure reports:
  /// "  [d+hh:mm:ss.mmm +dur] comp.stage detail".
  std::string describe(const std::string& alert_id) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace simba::util
