// Deterministic random-number generation for the simulator.
//
// All randomness in SIMBA flows from named child streams of one root
// seed, so every experiment is reproducible: same seed, same trace.
// The generator is xoshiro256** (public domain, Blackman & Vigna),
// seeded through splitmix64 as its authors recommend.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/time.h"

namespace simba {

/// splitmix64 step; used for seeding and for hashing stream names.
std::uint64_t splitmix64(std::uint64_t& state);

/// FNV-1a 64-bit hash of a string, for deriving named child streams.
std::uint64_t hash_name(std::string_view name);

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator so it also composes with <random>,
/// but the built-in distributions below are preferred: they are stable
/// across standard-library implementations, which keeps experiment
/// output identical everywhere.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Child generator whose stream is independent of, but fully
  /// determined by, this generator's seed and `name`. Does not consume
  /// randomness from this stream.
  Rng child(std::string_view name) const;

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// True with probability p (clamped to [0,1]).
  bool chance(double p);
  /// Exponential with the given mean (not rate). mean <= 0 returns 0.
  double exponential(double mean);
  /// Standard normal via Box-Muller (one value per call, no caching,
  /// so streams stay position-independent).
  double normal(double mean, double stddev);
  /// Log-normal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Pareto with scale xm > 0 and shape alpha > 0 (heavy tail).
  double pareto(double xm, double alpha);
  /// Picks an index in [0, weights.size()) proportional to weights.
  /// Zero/negative weights are treated as zero; all-zero picks 0.
  std::size_t weighted_index(const double* weights, std::size_t n);

  /// Duration helpers (clamped at zero).
  Duration exponential_duration(Duration mean);
  Duration uniform_duration(Duration lo, Duration hi);
  Duration normal_duration(Duration mean, Duration stddev);
  /// Log-normal duration with the given median and sigma of the
  /// underlying normal; heavy-tailed, always positive. Used for email
  /// and SMS delays ("seconds to days").
  Duration lognormal_duration(Duration median, double sigma);

 private:
  std::array<std::uint64_t, 4> s_;
  std::uint64_t seed_;
};

}  // namespace simba
