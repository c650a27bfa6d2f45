// What one shard of the fleet driver (fleet/resume.h) carries across
// epoch boundaries, and its checkpoint codec: the shard image (ten
// strictly ordered sections) and the fleet image (one meta section
// plus one shard image per shard), both framed by sim/snapshot.h.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/fleet.h"
#include "fleet/resume.h"
#include "fleet/world_state.h"
#include "sim/invariants.h"
#include "util/flat_map.h"
#include "util/result.h"
#include "util/stats.h"
#include "util/time.h"

namespace simba::fleet {

/// One planned submission: when, and on which of the driver's streams.
struct Arrival {
  TimePoint t{};
  std::uint8_t stream = 0;
};

/// A source-side acknowledgement, kept for the source-IM portal's
/// log-before-ack and ack-latency scoring.
struct Ack {
  TimePoint at{};
  int block = -1;  // delivery block that succeeded (0 = primary IM leg)
};

/// Everything one shard carries across epoch boundaries. This struct
/// (plus the options it was created under) IS the checkpoint: encoding
/// it and decoding it back must be lossless.
struct ShardDriver {
  std::uint32_t next_epoch = 0;
  /// The full arrival schedule, time-ordered; an arrival's id number
  /// is its index. Fixed after epoch 0.
  std::vector<Arrival> plan;
  /// Arrivals already handed to a past (or the current) epoch's kernel.
  std::uint64_t cursor = 0;
  /// World state saved at the last boundary (meaningful when
  /// next_epoch > 0).
  WorldState world;
  /// Conservation tracker spanning all epochs (chaos / storm).
  sim::InvariantChecker checker;
  /// Portal e-mail only: MAB-assigned alert id -> submit time, fed by
  /// the alert observer. Serialised through sorted_items() so
  /// checkpoint images stay sorted and thread-invariant.
  util::FlatMap<std::string, TimePoint> sent_at;
  /// Source-IM portal only: alert id -> its acknowledgement.
  util::FlatMap<std::string, Ack> acked;
  /// Portal only: availability-probe counters.
  Counters health;
  /// Shard checkpoint image, filled at the boundary the control asked
  /// to checkpoint at (encoding is pure, so it is safe inside the
  /// parallel shard body).
  std::string image;
};

std::string encode_shard(const ResumableOptions& o, const ShardTask& task,
                         const ShardDriver& d);

/// Wraps the shard images cut at `next_epoch` into one fleet image.
std::string encode_fleet(const ResumableOptions& o,
                         const std::vector<ShardDriver>& drivers,
                         std::uint32_t next_epoch);
/// Rejects, with a clean error, any image that is malformed or was cut
/// under another run shape, seed, shard count or epoch range.
Result<std::vector<ShardDriver>> decode_fleet(const ResumableOptions& o,
                                              std::string_view image);

}  // namespace simba::fleet
