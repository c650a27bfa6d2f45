#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace simba {

void Summary::add(double x) {
  if (samples_.empty()) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  samples_.push_back(x);
  sorted_ = false;
  sum_ += x;
  // Welford update.
  const double n = static_cast<double>(samples_.size());
  const double delta = x - mean_;
  mean_ += delta / n;
  m2_ += delta * (x - mean_);
}

double Summary::variance() const {
  if (samples_.size() < 2) return 0.0;
  return m2_ / static_cast<double>(samples_.size() - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

double Summary::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

void Summary::merge(const Summary& other) {
  if (other.samples_.empty()) return;
  // Re-adding sample by sample (rather than the closed-form Chan
  // variance merge) keeps the result bit-identical to a sequential run
  // that saw the same samples in the same order.
  if (&other == this) {
    const std::vector<double> copy = other.samples_;
    for (const double x : copy) add(x);
    return;
  }
  for (const double x : other.samples_) add(x);
}

std::string Summary::report(const char* value_format) const {
  char val[64];
  std::string out = "n=" + std::to_string(count());
  auto append = [&](const char* label, double v) {
    std::snprintf(val, sizeof val, value_format, v);
    out += ' ';
    out += label;
    out += '=';
    out += val;
  };
  if (!empty()) {
    append("mean", mean());
    append("p50", percentile(50));
    append("p90", percentile(90));
    append("p99", percentile(99));
    append("min", min());
    append("max", max());
  }
  return out;
}

void Counters::bump(CounterName name, std::int64_t by) {
  auto it = by_address_.find(name.address());
  if (it == by_address_.end()) {
    const auto slot = counts_.try_emplace(name.text()).first - counts_.begin();
    it = by_address_
             .emplace(name.address(), static_cast<std::uint32_t>(slot))
             .first;
  }
  (counts_.begin() + it->second)->second += by;
}

void Counters::add(std::string_view name, std::int64_t by) {
  // The std::string key is built only on the insert path.
  counts_[name] += by;
}

std::int64_t Counters::get(std::string_view name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, std::int64_t>> Counters::all() const {
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(counts_.size());
  for (const auto& [name, value] : counts_.sorted_items()) {
    out.emplace_back(name, value);
  }
  return out;
}

void Counters::merge(const Counters& other) {
  if (&other == this) {
    for (auto& [name, value] : counts_) value *= 2;
    return;
  }
  for (const auto& [name, value] : other.counts_) counts_[name] += value;
}

std::string Counters::report() const {
  std::string out;
  for (const auto& [name, value] : counts_.sorted_items()) {
    out += "  " + name + " = " + std::to_string(value) + "\n";
  }
  return out;
}

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)), counts_(boundaries_.size() + 1, 0) {
  std::sort(boundaries_.begin(), boundaries_.end());
}

void Histogram::add(double x) {
  const auto it =
      std::upper_bound(boundaries_.begin(), boundaries_.end(), x);
  counts_[static_cast<std::size_t>(it - boundaries_.begin())]++;
  ++total_;
}

std::string Histogram::render(const char* unit) const {
  if (total_ == 0) return "  (empty)\n";
  const std::size_t peak = *std::max_element(counts_.begin(), counts_.end());
  std::string out;
  char line[160];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    char range[64];
    if (i == 0) {
      std::snprintf(range, sizeof range, "        < %6.2f%s", boundaries_[0],
                    unit);
    } else if (i == boundaries_.size()) {
      std::snprintf(range, sizeof range, "       >= %6.2f%s",
                    boundaries_.back(), unit);
    } else {
      std::snprintf(range, sizeof range, "%6.2f .. %6.2f%s",
                    boundaries_[i - 1], boundaries_[i], unit);
    }
    const int bar =
        peak == 0 ? 0 : static_cast<int>(40.0 * static_cast<double>(counts_[i]) /
                                         static_cast<double>(peak));
    std::snprintf(line, sizeof line, "  %s | %-40.*s %zu\n", range, bar,
                  "########################################", counts_[i]);
    out += line;
  }
  return out;
}

}  // namespace simba
