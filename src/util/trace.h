// Deterministic alert-lifecycle tracing.
//
// A Trace records Spans, each stamped with virtual time only (the
// simulator clock) so that a fixed seed and scenario produce a
// byte-identical trace on every run, on every platform, at every fleet
// thread count. Components hold a `Trace*` (null means tracing is off)
// and emit spans at the interesting points of an alert's lifecycle:
// bus send/deliver and chaos injections, log append/ack/recovery, MAB
// classify → aggregate → filter → route, and delivery-engine
// block/action attempts with fallback and skip reasons.
//
// Every emit() adds the span's duration to one per-stage row
// ("component.stage" → Summary), which is all that stage_latency()
// and the per-stage reports read. A trace that keeps spans (the
// default) also stores the span itself, for the readers of single
// alerts: JSONL export, golden traces, violation reports and
// checkpoint images. A traced fleet world keeps spans only when
// fleet::UserWorldOptions::keep_spans asks for them, so leaving
// tracing on costs a few dozen rows rather than one Span per event.
//
// Like Counters/Summary, traces merge: fleet shards each record their
// own Trace and run_fleet moves them together in shard order, so the
// merged trace is independent of the thread count.
// Export is canonical sorted JSONL (integer microsecond timestamps,
// no floats) — the format the golden-trace tests byte-compare.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/flat_map.h"
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
  /// A trace that keeps every span. Allocates nothing until the first
  /// emit().
  Trace() = default;
  /// keep_spans = false: emit() fills only the per-stage table.
  explicit Trace(bool keep_spans) : keep_spans_(keep_spans) {}

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

  /// The kept spans in emission order; none unless the trace keeps
  /// spans.
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }
  /// Nothing emitted or merged in: no spans and no stage rows.
  bool empty() const { return spans_.empty() && rows_.empty(); }

  /// Folds `other` in after this trace's own history: each of its
  /// stage rows is replayed onto this trace's row of the same text
  /// (Summary::merge), and its spans are appended when this trace
  /// keeps spans. `other` ends empty with its storage released.
  /// Merging shard traces in shard order yields the same table and
  /// span sequence for any thread count, exactly like Counters::merge
  /// / Summary::merge.
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
  /// span durations in seconds (instant spans contribute 0): a copy of
  /// the table emit() fills, one row per text however many label
  /// pointers carry it. Exact whether or not spans were kept — the
  /// same samples in the same order as a walk over every emitted span.
  // simba-lint: ordered (report-time; callers print stages sorted)
  std::map<std::string, Summary> stage_latency() const;

  /// Human-oriented per-stage latency table (one stage per line), for
  /// the bench report sections.
  std::string stage_report() const;

  /// Multi-line lifecycle listing of one alert's spans in canonical
  /// order, for invariant-failure reports:
  /// "  [d+hh:mm:ss.mmm +dur] comp.stage detail". A trace that keeps
  /// no spans says so instead.
  std::string describe(const std::string& alert_id) const;

 private:
  /// The (component, stage) label pointers of one emit site.
  using Labels = std::pair<const char*, const char*>;
  struct LabelsHash {
    std::uint64_t operator()(const Labels& labels) const;
  };

  /// The row of (component, stage), created on first use.
  Summary& row(const char* component, const char* stage);

  bool keep_spans_ = true;
  std::vector<Span> spans_;
  /// The per-stage table, keyed "component.stage", rows in first-use
  /// order (stage_latency() sorts). Never handed out by reference:
  /// Summary::percentile sorts its samples in place, and merge() must
  /// replay them in emission order.
  FlatMap<std::string, Summary> rows_;
  /// Label pointers → slot in rows_, so emit() hashes no text. Equal
  /// text behind different pointers (literals from two translation
  /// units, Trace::label copies) shares a row through the text lookup
  /// on a miss.
  FlatMap<Labels, std::size_t, LabelsHash, std::equal_to<>> row_of_;
};

}  // namespace simba::util
