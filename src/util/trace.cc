#include "util/trace.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <utility>

#include "util/interner.h"
#include "util/mutex.h"
#include "util/strings.h"

namespace simba::util {
namespace {

/// Minimal JSON string escaping: quotes, backslashes, and control
/// characters. Span ids and details are ASCII by construction, but the
/// exporter must never emit an unparseable line.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strformat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The one process-wide label table behind Trace::label.
struct LabelTable {
  Mutex mu;
  StringInterner labels SIMBA_GUARDED_BY(mu);
};

bool canonical_less(const Span& a, const Span& b) {
  if (a.start != b.start) return a.start < b.start;
  if (int c = a.alert_id.compare(b.alert_id); c != 0) return c < 0;
  if (int c = std::strcmp(a.component, b.component); c != 0) return c < 0;
  if (int c = std::strcmp(a.stage, b.stage); c != 0) return c < 0;
  if (a.end != b.end) return a.end < b.end;
  return a.detail < b.detail;
}

}  // namespace

void Trace::emit(std::string alert_id, const char* component,
                 const char* stage, TimePoint at, std::string detail) {
  emit(std::move(alert_id), component, stage, at, at, std::move(detail));
}

void Trace::emit(std::string alert_id, const char* component,
                 const char* stage, TimePoint start, TimePoint end,
                 std::string detail) {
  row(component, stage).add(end - start);
  if (!keep_spans_) return;
  spans_.push_back(Span{std::move(alert_id), component, stage, start, end,
                        std::move(detail)});
}

std::uint64_t Trace::LabelsHash::operator()(const Labels& labels) const {
  // Addresses, not text: the index only short-cuts the lookup, so
  // nothing ordered depends on where a label lives.
  return mix64(mix64(reinterpret_cast<std::uintptr_t>(labels.first)) ^
               reinterpret_cast<std::uintptr_t>(labels.second));
}

Summary& Trace::row(const char* component, const char* stage) {
  const Labels labels{component, stage};
  const auto hit = row_of_.find(labels);
  if (hit != row_of_.end()) return rows_.begin()[hit->second].second;
  const auto slot = rows_.try_emplace(std::string(component) + "." + stage);
  row_of_.emplace(labels, static_cast<std::size_t>(slot.first - rows_.begin()));
  return slot.first->second;
}

const char* Trace::label(std::string_view text) {
  // Process-wide, so any thread that decodes an image shares it.
  static LabelTable table;
  MutexLock lock(table.mu);
  return table.labels.intern(text);
}

void Trace::merge(Trace&& other) {
  if (keep_spans_ && spans_.empty()) {
    spans_ = std::move(other.spans_);
  } else if (keep_spans_) {
    spans_.insert(spans_.end(), std::make_move_iterator(other.spans_.begin()),
                  std::make_move_iterator(other.spans_.end()));
  }
  other.spans_ = std::vector<Span>();
  if (rows_.empty()) {
    rows_ = std::move(other.rows_);
    row_of_ = std::move(other.row_of_);
  } else {
    for (const auto& [stage, latency] : other.rows_) {
      rows_[stage].merge(latency);
    }
  }
  other.rows_ = {};
  other.row_of_ = {};
}

std::vector<Span> Trace::sorted_spans() const {
  std::vector<Span> sorted = spans_;
  std::stable_sort(sorted.begin(), sorted.end(), canonical_less);
  return sorted;
}

std::string Trace::to_jsonl() const {
  std::string out;
  for (const Span& s : sorted_spans()) {
    out += strformat(
        "{\"t\":%lld,\"dur\":%lld,\"alert\":\"%s\",\"comp\":\"%s\","
        "\"stage\":\"%s\",\"detail\":\"%s\"}\n",
        static_cast<long long>(s.start.time_since_epoch().count()),
        static_cast<long long>(s.duration().count()),
        json_escape(s.alert_id).c_str(), json_escape(s.component).c_str(),
        json_escape(s.stage).c_str(), json_escape(s.detail).c_str());
  }
  return out;
}

// simba-lint: ordered (report-time only; printed in sorted order)
std::map<std::string, Summary> Trace::stage_latency() const {
  return {rows_.begin(), rows_.end()};
}

std::string Trace::stage_report() const {
  std::string out;
  for (const auto& [stage, latency] : stage_latency()) {
    out += strformat("%-28s %s\n", stage.c_str(), latency.report().c_str());
  }
  return out;
}

std::string Trace::describe(const std::string& alert_id) const {
  if (!keep_spans_) {
    return "  (spans not kept; set UserWorldOptions::keep_spans)\n";
  }
  std::vector<Span> mine;
  for (const Span& s : spans_) {
    if (s.alert_id == alert_id) mine.push_back(s);
  }
  std::stable_sort(mine.begin(), mine.end(), canonical_less);
  std::string out;
  for (const Span& s : mine) {
    out += strformat("  [%s +%s] %s.%s", format_time(s.start).c_str(),
                     format_duration(s.duration()).c_str(), s.component,
                     s.stage);
    if (!s.detail.empty()) out += " " + s.detail;
    out += "\n";
  }
  if (out.empty()) out = "  (no spans recorded)\n";
  return out;
}

}  // namespace simba::util
