// Streaming statistics and percentile reporting for the benchmark
// harnesses. Every experiment in EXPERIMENTS.md reports through these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/flat_map.h"
#include "util/time.h"

namespace simba {

/// Streaming mean/variance via Welford's algorithm, plus retained
/// samples for exact percentiles. Holds doubles; callers decide units.
class Summary {
 public:
  void add(double x);
  void add(Duration d) { add(to_seconds(d)); }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const { return mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  /// Percentile of the sorted samples, p in [0, 100]: rank
  /// p/100 * (n - 1), interpolated linearly between the two adjacent
  /// ranks (the median of 1..100 is 50.5).
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double total() const { return sum_; }

  const std::vector<double>& samples() const { return samples_; }

  /// Folds another summary into this one, exactly as if the other's
  /// samples had been add()ed here one by one. Merging the same
  /// sequence of summaries in the same order always yields bit-identical
  /// statistics, which is what lets the fleet runner produce the same
  /// merged report for any thread count.
  void merge(const Summary& other);

  /// "n=100 mean=0.93 p50=0.91 p99=1.40 min=0.52 max=1.61" with the
  /// given printf format for values (default "%.3f").
  std::string report(const char* value_format = "%.3f") const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A counter name fixed at compile time: a string literal or a
/// constexpr array. The constructor is consteval and reads the text,
/// so only a constant expression with static storage converts; a
/// run-time `const char*` or a local array does not compile. Such a
/// name's address is stable and always means the same text, which is
/// what lets Counters::bump find it by address.
class CounterName {
 public:
  // Implicit, so a call site passes the literal itself.
  template <std::size_t N>
  consteval CounterName(const char (&name)[N])
      : text_(name, std::char_traits<char>::length(name)) {}

  std::string_view text() const { return text_; }
  /// The address the bag's index keys on.
  std::uintptr_t address() const {
    return reinterpret_cast<std::uintptr_t>(text_.data());
  }

 private:
  std::string_view text_;
};

/// Counter bag: named integer counters for fault logs and recovery
/// statistics (experiment E6 reports these directly).
///
/// bump() takes a CounterName and finds a literal's entry by its
/// address; add() takes any text (the computed names: invariant
/// exports, per-medium and per-priority families, prefix copies,
/// snapshot decode). get() looks up by text through a transparent
/// hash. The bag is an open-addressing util::FlatMap (bump is the
/// single hottest map op in the fleet); all() materialises the sorted
/// view every report/snapshot/merge-comparison site relied on when
/// this was a std::map.
class Counters {
 public:
  void bump(CounterName name, std::int64_t by = 1);
  /// bump() by text, for names built at run time.
  void add(std::string_view name, std::int64_t by = 1);
  std::int64_t get(std::string_view name) const;
  /// Every counter, sorted by name. Returned by value: the underlying
  /// flat map iterates in insertion order, and every caller (reports,
  /// snapshot serialisation, merged-report JSON, test comparisons)
  /// wants the deterministic sorted sequence.
  std::vector<std::pair<std::string, std::int64_t>> all() const;
  /// Adds every counter from `other` into this bag (sums on key
  /// collision, inserts otherwise). Associative and commutative.
  void merge(const Counters& other);
  std::string report() const;

 private:
  util::FlatMap<std::string, std::int64_t> counts_;
  /// CounterName address -> dense slot of its entry in counts_, filled
  /// by the first bump of that literal through a text lookup, so equal
  /// literals at different addresses share one entry. A slot stays
  /// valid because entries are never erased, and copy, move, merge()
  /// and the map's graduation to hashed mode all keep slot order; the
  /// index is copied and moved with the map it points into.
  util::FlatMap<std::uintptr_t, std::uint32_t> by_address_;
};

/// Fixed-boundary histogram for latency distributions.
class Histogram {
 public:
  /// Buckets are [b0,b1), [b1,b2), ..., plus an overflow bucket.
  explicit Histogram(std::vector<double> boundaries);

  void add(double x);
  void add(Duration d) { add(to_seconds(d)); }
  std::size_t count() const { return total_; }
  const std::vector<std::size_t>& buckets() const { return counts_; }
  const std::vector<double>& boundaries() const { return boundaries_; }
  /// Multi-line ASCII rendering with bars, for bench output.
  std::string render(const char* unit = "s") const;

 private:
  std::vector<double> boundaries_;
  std::vector<std::size_t> counts_;  // boundaries_.size()+1 entries
  std::size_t total_ = 0;
};

}  // namespace simba
