#include "metrics.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <queue>
#include <random>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

// Written by the probe so its loop cannot be optimised away.
volatile std::uint64_t probe_sink = 0;

}  // namespace

Tail tail(const simba::Summary& summary, double p) {
  Tail out;
  out.samples = summary.count();
  if (summary.empty()) return out;
  out.value = summary.percentile(p);
  out.beyond = static_cast<std::size_t>(
      std::count_if(summary.samples().begin(), summary.samples().end(),
                    [&out](double x) { return x > out.value; }));
  return out;
}

double world_days(std::size_t worlds, simba::Duration horizon,
                  simba::Duration drain) {
  return static_cast<double>(worlds) * simba::to_seconds(horizon + drain) /
         86400.0;
}

PerUnit per_unit(double wall_seconds, double world_days,
                 std::int64_t alerts) {
  PerUnit out;
  if (world_days > 0.0) out.us_per_user_day = wall_seconds * 1e6 / world_days;
  if (alerts > 0) {
    out.us_per_alert = wall_seconds * 1e6 / static_cast<double>(alerts);
  }
  return out;
}

double probe_seconds() {
  using clock = std::chrono::steady_clock;
  const clock::time_point start = clock::now();
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::unordered_map<std::uint64_t, std::string> state;
  std::vector<std::function<void(std::uint64_t)>> handlers;
  std::mt19937_64 rng(42);
  std::uint64_t checksum = 0;
  for (std::uint32_t h = 0; h < 64; ++h) {
    handlers.push_back([&, h](std::uint64_t t) {
      std::string& text = state[(t * 131 + h) % 60000];
      text += static_cast<char>('a' + h % 26);
      if (text.size() > 120) text.clear();
      checksum += text.size();
      if (rng() % 4 != 0) {
        queue.emplace(t + 1 + rng() % 1000,
                      static_cast<std::uint32_t>(rng() % 64));
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    queue.emplace(rng() % 1000, static_cast<std::uint32_t>(rng() % 64));
  }
  for (int n = 0; n < 60000 && !queue.empty(); ++n) {
    const auto [t, h] = queue.top();
    queue.pop();
    handlers[h](t);
    if (queue.size() < 1000) {
      queue.emplace(t + 1 + rng() % 1000,
                    static_cast<std::uint32_t>(rng() % 64));
    }
  }
  probe_sink = checksum;
  return std::chrono::duration<double>(clock::now() - start).count();
}

double host_normalised(double seconds, double probe) {
  return probe > 0.0 ? seconds * kProbeNominalSeconds / probe : seconds;
}

double robust_wall_seconds(const std::vector<ChunkTiming>& chunks) {
  struct Kind {
    std::vector<double> rates;
    double world_days = 0.0;
  };
  std::map<std::string, Kind> kinds;
  for (const ChunkTiming& chunk : chunks) {
    if (chunk.world_days <= 0.0) continue;
    Kind& kind = kinds[chunk.kind];
    kind.rates.push_back(
        host_normalised(chunk.wall_seconds, chunk.probe_seconds) /
        chunk.world_days);
    kind.world_days += chunk.world_days;
  }
  double total = 0.0;
  for (auto& [name, kind] : kinds) {
    (void)name;
    std::vector<double>& r = kind.rates;
    std::sort(r.begin(), r.end());
    const std::size_t mid = r.size() / 2;
    const double median =
        r.size() % 2 == 1 ? r[mid] : 0.5 * (r[mid - 1] + r[mid]);
    total += median * kind.world_days;
  }
  return total;
}

Accounting accounting(const simba::Counters& counters) {
  Accounting out;
  if (counters.get("invariant.submitted") > 0) {
    out.submitted = counters.get("invariant.submitted");
    out.delivered = counters.get("invariant.delivered");
    out.coalesced = counters.get("invariant.coalesced");
    out.failed = counters.get("invariant.failed") +
                 counters.get("invariant.shed") +
                 counters.get("invariant.in_flight");
  } else {
    out.submitted = counters.get("alerts.sent");
    out.delivered = counters.get("alerts.delivered");
    out.failed = counters.get("alerts.lost");
  }
  return out;
}

std::vector<double> self_times(const std::vector<BenchSpan>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const BenchSpan& span : spans) {
    if (span.parent >= 0 &&
        static_cast<std::size_t>(span.parent) < spans.size()) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start,
                                                                   span.end);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const BenchSpan& span = spans[i];
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0;
    double cursor = span.start;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, cursor);
      const double to = std::min(end, span.end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    out[i] = span.duration() - covered;
  }
  return out;
}

std::size_t out_of_line_bytes(const std::string& text) {
  const auto object = reinterpret_cast<std::uintptr_t>(&text);
  const auto data = reinterpret_cast<std::uintptr_t>(text.data());
  const bool inline_buffer = data >= object && data < object + sizeof(text);
  return inline_buffer ? 0 : text.capacity() + 1;
}

std::size_t trace_bytes(const simba::util::Trace& trace) {
  std::size_t bytes = trace.spans().capacity() * sizeof(simba::util::Span);
  for (const simba::util::Span& span : trace.spans()) {
    bytes += out_of_line_bytes(span.alert_id) + out_of_line_bytes(span.detail);
  }
  return bytes;
}

std::size_t report_trace_bytes(const simba::fleet::FleetReport& report) {
  std::size_t bytes = trace_bytes(report.trace);
  for (const simba::fleet::ShardResult& shard : report.per_shard) {
    bytes += trace_bytes(shard.trace);
  }
  return bytes;
}

std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace perfbench
