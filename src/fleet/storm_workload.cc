#include "fleet/storm_workload.h"

namespace simba::fleet {

core::OverloadOptions storm_defenses() {
  core::OverloadOptions o;
  // Admission sized for the legitimate load (background + criticals,
  // well under 0.01/s) with enough burst to ride out small clumps;
  // storm cascades blow through and coalesce.
  o.per_user.rate_per_sec = 0.5;
  o.per_user.burst = 30.0;
  o.per_source.rate_per_sec = 0.25;
  o.per_source.burst = 15.0;
  o.coalesce_enabled = true;
  o.coalesce.window = seconds(30);
  o.coalesce.max_batch = 100;
  o.coalesce.representatives = 3;
  o.inbox_bound = 64;
  o.engine.max_concurrent = 4;
  o.engine.lane_bound = 64;
  o.engine.priority_lanes = true;
  return o;
}

core::OverloadOptions storm_no_defenses() {
  core::OverloadOptions o;
  // Same delivery concurrency, no protection: one unbounded FIFO lane,
  // every storm alert admitted. The comparison isolates the defenses.
  o.engine.max_concurrent = 4;
  o.engine.lane_bound = 0;
  o.engine.priority_lanes = false;
  return o;
}

}  // namespace simba::fleet
