#include "fleet/checkpoint.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/alert.h"
#include "sim/snapshot.h"

namespace simba::fleet {

namespace {

// --- Image layout -----------------------------------------------------------

constexpr std::uint32_t kShardImageKind = 1;
constexpr std::uint32_t kFleetImageKind = 2;
constexpr std::uint32_t kShapeImageKind = 3;

// Shard-image sections, in their strict order.
enum ShardSection : std::uint32_t {
  kSecMeta = 1,
  kSecClock = 2,
  kSecHost = 3,
  kSecUser = 4,
  kSecEmail = 5,
  kSecBus = 6,
  kSecTrace = 7,
  kSecPlan = 8,
  kSecChecker = 9,
  kSecDriver = 10,
};

// Fleet-image sections: one meta, then one shard blob per shard in
// shard order.
enum FleetSection : std::uint32_t {
  kSecFleetMeta = 1,
  kSecFleetShard = 2,
};

// The run-shape image: one section.
constexpr std::uint32_t kSecShape = 1;

// --- Codecs -----------------------------------------------------------------
// All decoders lean on SnapshotReader's sticky-error contract: loops
// are bounded by per-iteration ok() checks and nothing pre-reserves
// from untrusted lengths, so a corrupt image degrades into a clean
// Status, never UB.

void put_string_vector(sim::SnapshotWriter& w,
                       const std::vector<std::string>& v) {
  w.u64(v.size());
  for (const std::string& s : v) w.str(s);
}

std::vector<std::string> get_string_vector(sim::SnapshotReader& r) {
  std::vector<std::string> out;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) out.push_back(r.str());
  return out;
}

void put_string_map(sim::SnapshotWriter& w,
                    // simba-lint: ordered (snapshot serialises sorted)
                    const std::map<std::string, std::string>& m) {
  w.u64(m.size());
  for (const auto& [key, value] : m) {
    w.str(key);
    w.str(value);
  }
}

// simba-lint: ordered
std::map<std::string, std::string> get_string_map(sim::SnapshotReader& r) {
  // simba-lint: ordered
  std::map<std::string, std::string> out;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    std::string key = r.str();
    out[std::move(key)] = r.str();
  }
  return out;
}

// Header maps are FlatMaps; serialising via sorted_items() keeps the
// image byte-identical to the ordered-map encoding above.
void put_string_map(sim::SnapshotWriter& w,
                    const util::FlatMap<std::string, std::string>& m) {
  w.u64(m.size());
  for (const auto& [key, value] : m.sorted_items()) {
    w.str(key);
    w.str(value);
  }
}

util::FlatMap<std::string, std::string> get_flat_string_map(
    sim::SnapshotReader& r) {
  util::FlatMap<std::string, std::string> out;
  const std::uint64_t n = r.u64();
  out.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    std::string key = r.str();
    out[std::move(key)] = r.str();
  }
  return out;
}

void put_alert(sim::SnapshotWriter& w, const core::Alert& alert) {
  w.str(alert.source);
  w.str(alert.native_category);
  w.str(alert.subject);
  w.str(alert.body);
  w.boolean(alert.high_importance);
  w.time_point(alert.created_at);
  w.str(alert.id);
  put_string_map(w, alert.attributes);
}

core::Alert get_alert(sim::SnapshotReader& r) {
  core::Alert alert;
  alert.source = r.str();
  alert.native_category = r.str();
  alert.subject = r.str();
  alert.body = r.str();
  alert.high_importance = r.boolean();
  alert.created_at = r.time_point();
  alert.id = r.str();
  alert.attributes = get_string_map(r);
  return alert;
}

void put_email(sim::SnapshotWriter& w, const email::Email& mail) {
  w.u64(mail.id);
  w.str(mail.from);
  w.str(mail.to);
  w.str(mail.subject);
  w.str(mail.body);
  put_string_map(w, mail.headers);
  w.boolean(mail.high_importance);
  w.time_point(mail.submitted_at);
  w.time_point(mail.delivered_at);
}

email::Email get_email(sim::SnapshotReader& r) {
  email::Email mail;
  mail.id = r.u64();
  mail.from = r.str();
  mail.to = r.str();
  mail.subject = r.str();
  mail.body = r.str();
  mail.headers = get_flat_string_map(r);
  mail.high_importance = r.boolean();
  mail.submitted_at = r.time_point();
  mail.delivered_at = r.time_point();
  return mail;
}

void put_host(sim::SnapshotWriter& w, const core::MabHost::State& s) {
  w.u64(s.log.records.size());
  for (const core::AlertLog::SavedRecord& record : s.log.records) {
    put_alert(w, record.alert);
    w.time_point(record.received_at);
    w.time_point(record.processed_at);
    w.boolean(record.processed);
  }
  sim::put_counters(w, s.log.stats);
  w.u64(s.digest.entries.size());
  for (const core::DigestStore::Entry& entry : s.digest.entries) {
    put_alert(w, entry.alert);
    w.str(entry.category);
    w.time_point(entry.filtered_at);
  }
  sim::put_counters(w, s.digest.stats);
  w.u64(s.coalescer.windows.size());
  for (const core::AlertCoalescer::WindowState& window : s.coalescer.windows) {
    w.str(window.category);
    w.u64(window.count);
    put_string_vector(w, window.representative_ids);
    put_string_vector(w, window.folded_ids);
    w.time_point(window.opened_at);
    w.time_point(window.deadline);
  }
  w.u64(s.coalescer.next_sequence);
  w.u64(s.mab_incarnations);
  sim::put_counters(w, s.stats);
  sim::put_counters(w, s.mab_totals);
}

core::MabHost::State get_host(sim::SnapshotReader& r) {
  core::MabHost::State s;
  const std::uint64_t records = r.u64();
  for (std::uint64_t i = 0; i < records && r.ok(); ++i) {
    core::AlertLog::SavedRecord record;
    record.alert = get_alert(r);
    record.received_at = r.time_point();
    record.processed_at = r.time_point();
    record.processed = r.boolean();
    s.log.records.push_back(std::move(record));
  }
  s.log.stats = sim::get_counters(r);
  const std::uint64_t entries = r.u64();
  for (std::uint64_t i = 0; i < entries && r.ok(); ++i) {
    core::DigestStore::Entry entry;
    entry.alert = get_alert(r);
    entry.category = r.str();
    entry.filtered_at = r.time_point();
    s.digest.entries.push_back(std::move(entry));
  }
  s.digest.stats = sim::get_counters(r);
  const std::uint64_t windows = r.u64();
  for (std::uint64_t i = 0; i < windows && r.ok(); ++i) {
    core::AlertCoalescer::WindowState window;
    window.category = r.str();
    window.count = r.u64();
    window.representative_ids = get_string_vector(r);
    window.folded_ids = get_string_vector(r);
    window.opened_at = r.time_point();
    window.deadline = r.time_point();
    s.coalescer.windows.push_back(std::move(window));
  }
  s.coalescer.next_sequence = r.u64();
  s.mab_incarnations = r.u64();
  s.stats = sim::get_counters(r);
  s.mab_totals = sim::get_counters(r);
  return s;
}

void put_user(sim::SnapshotWriter& w, const core::UserEndpoint::State& s) {
  w.u64(s.sightings.size());
  for (const core::UserEndpoint::SightingState& sighting : s.sightings) {
    w.str(sighting.alert_id);
    w.time_point(sighting.first);
    w.str(sighting.channel);
    w.i64(sighting.count);
  }
  w.u64(s.email_cursor);
  sim::put_counters(w, s.stats);
}

core::UserEndpoint::State get_user(sim::SnapshotReader& r) {
  core::UserEndpoint::State s;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    core::UserEndpoint::SightingState sighting;
    sighting.alert_id = r.str();
    sighting.first = r.time_point();
    sighting.channel = r.str();
    sighting.count = static_cast<int>(r.i64());
    s.sightings.push_back(std::move(sighting));
  }
  s.email_cursor = r.u64();
  s.stats = sim::get_counters(r);
  return s;
}

void put_email_server(sim::SnapshotWriter& w,
                      const email::EmailServer::State& s) {
  w.u64(s.mailboxes.size());
  for (const email::EmailServer::MailboxState& mailbox : s.mailboxes) {
    w.str(mailbox.address);
    w.u64(mailbox.mail.size());
    for (const email::Email& mail : mailbox.mail) put_email(w, mail);
  }
  w.u64(s.next_id);
  sim::put_counters(w, s.stats);
}

email::EmailServer::State get_email_server(sim::SnapshotReader& r) {
  email::EmailServer::State s;
  const std::uint64_t boxes = r.u64();
  for (std::uint64_t i = 0; i < boxes && r.ok(); ++i) {
    email::EmailServer::MailboxState mailbox;
    mailbox.address = r.str();
    const std::uint64_t mails = r.u64();
    for (std::uint64_t j = 0; j < mails && r.ok(); ++j) {
      mailbox.mail.push_back(get_email(r));
    }
    s.mailboxes.push_back(std::move(mailbox));
  }
  s.next_id = r.u64();
  s.stats = sim::get_counters(r);
  return s;
}

void put_spans(sim::SnapshotWriter& w, const std::vector<CarriedSpan>& spans) {
  w.u64(spans.size());
  for (const CarriedSpan& span : spans) {
    w.str(span.alert_id);
    w.str(span.component);
    w.str(span.stage);
    w.time_point(span.start);
    w.time_point(span.end);
    w.str(span.detail);
  }
}

std::vector<CarriedSpan> get_spans(sim::SnapshotReader& r) {
  std::vector<CarriedSpan> out;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    CarriedSpan span;
    span.alert_id = r.str();
    span.component = r.str();
    span.stage = r.str();
    span.start = r.time_point();
    span.end = r.time_point();
    span.detail = r.str();
    out.push_back(std::move(span));
  }
  return out;
}

void put_checker(sim::SnapshotWriter& w,
                 const sim::InvariantChecker::State& s) {
  w.boolean(s.duplicates_allowed);
  w.u64(s.tracks.size());
  for (const sim::InvariantChecker::TrackState& track : s.tracks) {
    w.str(track.id);
    w.boolean(track.submitted);
    w.boolean(track.logged);
    w.boolean(track.acked);
    w.boolean(track.acked_logged);
    w.i64(track.ack_block);
    w.boolean(track.failed);
    w.boolean(track.shed);
    w.i64(track.coalesces);
    w.boolean(track.recoverable);
    w.i64(track.sightings);
    w.time_point(track.submitted_at);
    w.time_point(track.first_seen);
  }
}

sim::InvariantChecker::State get_checker(sim::SnapshotReader& r) {
  sim::InvariantChecker::State s;
  s.duplicates_allowed = r.boolean();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    sim::InvariantChecker::TrackState track;
    track.id = r.str();
    track.submitted = r.boolean();
    track.logged = r.boolean();
    track.acked = r.boolean();
    track.acked_logged = r.boolean();
    track.ack_block = static_cast<int>(r.i64());
    track.failed = r.boolean();
    track.shed = r.boolean();
    track.coalesces = static_cast<int>(r.i64());
    track.recoverable = r.boolean();
    track.sightings = static_cast<int>(r.i64());
    track.submitted_at = r.time_point();
    track.first_seen = r.time_point();
    s.tracks.push_back(std::move(track));
  }
  return s;
}

/// The run shape a checkpoint is only replayable under: the kind and
/// every option that steers the plan or the epoch boundaries. A shard
/// image carries it whole and decode compares it byte for byte, so a
/// mismatch in any field is one clean error.
std::string encode_shape(const ResumableOptions& o) {
  sim::SnapshotWriter w(kShapeImageKind);
  w.begin_section(kSecShape);
  w.u32(static_cast<std::uint32_t>(kind_of(o)));
  w.u32(static_cast<std::uint32_t>(o.epochs));
  w.dur(o.boundary_gap);
  std::visit(
      [&w](const auto& workload) {
        w.dur(workload.horizon);
        w.dur(workload.drain);
      },
      o.workload);
  if (const auto* portal = std::get_if<PortalWorkloadOptions>(&o.workload)) {
    w.u32(static_cast<std::uint32_t>(portal->traffic));
    w.f64(portal->alerts_per_user_day);
  } else if (const auto* chaos =
                 std::get_if<ChaosWorkloadOptions>(&o.workload)) {
    w.f64(chaos->alerts_per_user_day);
  } else {
    const auto& storm = std::get<StormWorkloadOptions>(o.workload);
    w.f64(storm.background_per_day);
    w.f64(storm.critical_per_day);
    w.u32(static_cast<std::uint32_t>(storm.sensor_cascades));
    w.u32(static_cast<std::uint32_t>(storm.cascade_size));
    w.dur(storm.cascade_spread);
    w.u32(static_cast<std::uint32_t>(storm.poll_bursts));
    w.u32(static_cast<std::uint32_t>(storm.burst_size));
    w.dur(storm.burst_spread);
  }
  w.end_section();
  return w.finish();
}

}  // namespace

// --- Shard image ------------------------------------------------------------

std::string encode_shard(const ResumableOptions& o, const ShardTask& task,
                         const ShardDriver& d) {
  sim::SnapshotWriter w(kShardImageKind);

  w.begin_section(kSecMeta);
  w.str(encode_shape(o));
  w.u64(task.shard_id);
  w.u64(task.seed);
  w.u32(d.next_epoch);
  w.end_section();

  w.begin_section(kSecClock);
  w.time_point(d.world.now);
  w.u64(d.world.events_processed);
  w.u64(d.world.sequence_counter);
  w.end_section();

  w.begin_section(kSecHost);
  put_host(w, d.world.host);
  w.end_section();

  w.begin_section(kSecUser);
  put_user(w, d.world.user);
  w.end_section();

  w.begin_section(kSecEmail);
  put_email_server(w, d.world.email);
  w.end_section();

  w.begin_section(kSecBus);
  sim::put_counters(w, d.world.bus_stats);
  w.end_section();

  w.begin_section(kSecTrace);
  put_spans(w, d.world.trace);
  w.end_section();

  w.begin_section(kSecPlan);
  w.u64(d.plan.size());
  for (const Arrival& arrival : d.plan) {
    w.time_point(arrival.t);
    w.u8(arrival.stream);
  }
  w.u64(d.cursor);
  w.end_section();

  w.begin_section(kSecChecker);
  put_checker(w, d.checker.save_state());
  w.end_section();

  w.begin_section(kSecDriver);
  w.u64(d.sent_at.size());
  for (const auto& [id, t] : d.sent_at.sorted_items()) {
    w.str(id);
    w.time_point(t);
  }
  w.u64(d.acked.size());
  for (const auto& [id, ack] : d.acked.sorted_items()) {
    w.str(id);
    w.time_point(ack.at);
    w.i64(ack.block);
  }
  sim::put_counters(w, d.health);
  w.end_section();

  return w.finish();
}

namespace {

Result<ShardDriver> decode_shard(const ResumableOptions& o,
                                 const ShardTask& task,
                                 std::string_view image) {
  sim::SnapshotReader r(image, kShardImageKind);
  ShardDriver d;

  r.enter(kSecMeta);
  const std::string shape = r.str();
  const std::uint64_t shard_id = r.u64();
  const std::uint64_t seed = r.u64();
  d.next_epoch = r.u32();
  r.leave();
  if (!r.ok()) return make_error(r.status().error());
  // A checkpoint is only replayable under the exact run shape it was
  // cut from; a mismatch would silently diverge, so it is an error.
  if (shape != encode_shape(o)) {
    return make_error("checkpoint run-shape mismatch for shard " +
                      std::to_string(task.shard_id));
  }
  if (shard_id != task.shard_id || seed != task.seed) {
    return make_error("checkpoint shard identity mismatch (shard " +
                      std::to_string(shard_id) + ")");
  }
  if (d.next_epoch == 0 ||
      d.next_epoch >= static_cast<std::uint32_t>(o.epochs)) {
    return make_error("checkpoint epoch out of range: " +
                      std::to_string(d.next_epoch));
  }

  r.enter(kSecClock);
  d.world.now = r.time_point();
  d.world.events_processed = r.u64();
  d.world.sequence_counter = r.u64();
  r.leave();

  r.enter(kSecHost);
  d.world.host = get_host(r);
  r.leave();

  r.enter(kSecUser);
  d.world.user = get_user(r);
  r.leave();

  r.enter(kSecEmail);
  d.world.email = get_email_server(r);
  r.leave();

  r.enter(kSecBus);
  d.world.bus_stats = sim::get_counters(r);
  r.leave();

  r.enter(kSecTrace);
  d.world.trace = get_spans(r);
  r.leave();

  r.enter(kSecPlan);
  const std::uint64_t arrivals = r.u64();
  for (std::uint64_t i = 0; i < arrivals && r.ok(); ++i) {
    Arrival arrival;
    arrival.t = r.time_point();
    arrival.stream = r.u8();
    d.plan.push_back(arrival);
  }
  d.cursor = r.u64();
  r.leave();

  r.enter(kSecChecker);
  const sim::InvariantChecker::State checker_state = get_checker(r);
  r.leave();

  r.enter(kSecDriver);
  const std::uint64_t sent = r.u64();
  for (std::uint64_t i = 0; i < sent && r.ok(); ++i) {
    std::string id = r.str();
    const TimePoint t = r.time_point();
    d.sent_at.emplace(std::move(id), t);
  }
  const std::uint64_t acks = r.u64();
  for (std::uint64_t i = 0; i < acks && r.ok(); ++i) {
    std::string id = r.str();
    Ack ack;
    ack.at = r.time_point();
    ack.block = static_cast<int>(r.i64());
    d.acked.emplace(std::move(id), ack);
  }
  d.health = sim::get_counters(r);
  r.leave();

  const Status status = r.finish();
  if (!status.ok()) return make_error(status.error());
  if (d.cursor > d.plan.size()) {
    return make_error("checkpoint plan cursor out of range");
  }
  d.checker.restore_state(checker_state);
  return d;
}

}  // namespace

// --- Fleet image ------------------------------------------------------------

std::string encode_fleet(const ResumableOptions& o,
                         const std::vector<ShardDriver>& drivers,
                         std::uint32_t next_epoch) {
  sim::SnapshotWriter w(kFleetImageKind);
  w.begin_section(kSecFleetMeta);
  w.u64(o.fleet.base_seed);
  w.u64(drivers.size());
  w.u32(next_epoch);
  w.end_section();
  for (const ShardDriver& d : drivers) {
    w.begin_section(kSecFleetShard);
    w.str(d.image);
    w.end_section();
  }
  return w.finish();
}

Result<std::vector<ShardDriver>> decode_fleet(const ResumableOptions& o,
                                              std::string_view image) {
  sim::SnapshotReader r(image, kFleetImageKind);
  r.enter(kSecFleetMeta);
  const std::uint64_t base_seed = r.u64();
  const std::uint64_t shards = r.u64();
  const std::uint32_t next_epoch = r.u32();
  r.leave();
  if (!r.ok()) return make_error(r.status().error());
  // The run shape and the epoch range are pinned per shard image.
  if (base_seed != o.fleet.base_seed || shards != o.fleet.shards) {
    return make_error("fleet checkpoint seed/shard-count mismatch");
  }
  std::vector<std::string> blobs;
  for (std::uint64_t i = 0; i < shards && r.ok(); ++i) {
    r.enter(kSecFleetShard);
    blobs.push_back(r.str());
    r.leave();
  }
  const Status status = r.finish();
  if (!status.ok()) return make_error(status.error());

  std::vector<ShardDriver> drivers;
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    const ShardTask task{i, shard_seed(o.fleet.base_seed, i)};
    Result<ShardDriver> decoded = decode_shard(o, task, blobs[i]);
    if (!decoded.ok()) {
      return make_error("shard " + std::to_string(i) + ": " +
                        decoded.error());
    }
    if (decoded.value().next_epoch != next_epoch) {
      return make_error("shard " + std::to_string(i) +
                        ": epoch disagrees with fleet meta");
    }
    drivers.push_back(std::move(decoded).take());
  }
  return drivers;
}

}  // namespace simba::fleet
