#include "fleet/checkpoint.h"

#include <concepts>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/alert.h"
#include "sim/snapshot.h"
#include "util/trace.h"

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

// --- The format: one field list per persisted type -------------------------
// Each `fields` overload names one type's persisted fields in wire
// order, once, for both directions: `io` is the writing adaptor Out
// (with T const) or the reading adaptor In. The adaptors map each field
// to its wire primitive: bool -> boolean, int -> i64, uint8_t -> u8,
// uint32_t -> u32, uint64_t/size_t -> u64, string -> str, TimePoint ->
// time_point, Counters -> put_counters/get_counters; a vector is a u64
// count then its elements, a std::map or FlatMap a u64 count then
// (key, value) pairs in key order. Any other type is walked through its
// own field list.

/// T is X when decoding and const X when encoding.
template <class T, class X>
concept Persisted = std::same_as<std::remove_const_t<T>, X>;

template <class IO, Persisted<core::Alert> T>
void fields(IO& io, T& a) {
  io(a.source, a.native_category, a.subject, a.body, a.high_importance,
     a.created_at, a.id, a.attributes);
}

template <class IO, Persisted<email::Email> T>
void fields(IO& io, T& m) {
  io(m.id, m.from, m.to, m.subject, m.body, m.headers, m.high_importance,
     m.submitted_at, m.delivered_at);
}

template <class IO, Persisted<core::AlertLog::Record> T>
void fields(IO& io, T& r) {
  io(r.alert, r.received_at, r.processed_at, r.processed);
}

template <class IO, Persisted<core::DigestStore::Entry> T>
void fields(IO& io, T& e) {
  io(e.alert, e.category, e.filtered_at);
}

template <class IO, Persisted<core::AlertCoalescer::WindowState> T>
void fields(IO& io, T& w) {
  io(w.category, w.count, w.representative_ids, w.folded_ids, w.opened_at,
     w.deadline);
}

template <class IO, Persisted<core::MabHost::State> T>
void fields(IO& io, T& s) {
  io(s.log.records, s.log.stats, s.digest.entries, s.digest.stats,
     s.coalescer.windows, s.coalescer.next_sequence, s.mab_incarnations,
     s.stats, s.mab_totals);
}

template <class IO, Persisted<core::UserEndpoint::SightingState> T>
void fields(IO& io, T& s) {
  io(s.alert_id, s.first, s.channel, s.count);
}

template <class IO, Persisted<core::UserEndpoint::State> T>
void fields(IO& io, T& s) {
  io(s.sightings, s.email_cursor, s.stats);
}

template <class IO, Persisted<email::EmailServer::State> T>
void fields(IO& io, T& s) {
  io(s.mailboxes, s.next_id, s.stats);
}

/// Labels are const char* in a live trace; they travel as strings and
/// decode maps them to static storage (Trace::label).
template <class IO, Persisted<util::Span> T>
void fields(IO& io, T& s) {
  io(s.alert_id, s.component, s.stage, s.start, s.end, s.detail);
}

template <class IO, Persisted<sim::InvariantChecker::TrackState> T>
void fields(IO& io, T& t) {
  io(t.id, t.submitted, t.logged, t.acked, t.acked_logged, t.ack_block,
     t.failed, t.shed, t.coalesces, t.recoverable, t.sightings,
     t.submitted_at, t.first_seen);
}

template <class IO, Persisted<sim::InvariantChecker::State> T>
void fields(IO& io, T& s) {
  io(s.duplicates_allowed, s.tracks);
}

template <class IO, Persisted<Arrival> T>
void fields(IO& io, T& a) {
  io(a.t, a.stream);
}

template <class IO, Persisted<Ack> T>
void fields(IO& io, T& a) {
  io(a.at, a.block);
}

/// What a shard image may only be resumed under: decode checks it
/// against the options and the task.
struct Meta {
  std::string shape;
  std::uint64_t shard_id = 0;
  std::uint64_t seed = 0;
};

/// The shard image: ten sections, in this strict order.
template <class IO, class M, class D, class C>
void shard_sections(IO& io, M& meta, D& d, C& checker) {
  io.section(kSecMeta, meta.shape, meta.shard_id, meta.seed, d.next_epoch);
  io.section(kSecClock, d.world.now, d.world.events_processed,
             d.world.sequence_counter);
  io.section(kSecHost, d.world.host);
  io.section(kSecUser, d.world.user);
  io.section(kSecEmail, d.world.email);
  io.section(kSecBus, d.world.bus_stats);
  io.section(kSecTrace, d.world.trace);
  io.section(kSecPlan, d.plan, d.cursor);
  io.section(kSecChecker, checker);
  io.section(kSecDriver, d.sent_at, d.acked, d.health);
}

/// The writing adaptor: appends fields to an image under construction.
class Out {
 public:
  explicit Out(sim::SnapshotWriter& w) : w_(w) {}

  template <class... Values>
  void operator()(const Values&... values) {
    (put(values), ...);
  }

  template <class... Values>
  void section(std::uint32_t id, const Values&... values) {
    w_.begin_section(id);
    (put(values), ...);
    w_.end_section();
  }

 private:
  void put(bool v) { w_.boolean(v); }
  void put(int v) { w_.i64(v); }
  void put(std::uint8_t v) { w_.u8(v); }
  void put(std::uint32_t v) { w_.u32(v); }
  void put(std::uint64_t v) { w_.u64(v); }
  void put(const std::string& v) { w_.str(v); }
  // A span label; without this overload it would convert to bool.
  void put(const char* label) { w_.str(label); }
  void put(TimePoint v) { w_.time_point(v); }
  void put(const Counters& v) { sim::put_counters(w_, v); }
  void put(const util::Trace& v) { put(v.spans()); }

  template <class T>
  void put(const std::vector<T>& v) {
    w_.u64(v.size());
    for (const T& item : v) put(item);
  }

  template <class K, class V, class C>
  void put(const std::map<K, V, C>& m) {
    w_.u64(m.size());
    for (const auto& [key, value] : m) {
      put(key);
      put(value);
    }
  }

  template <class K, class V, class H, class E>
  void put(const util::FlatMap<K, V, H, E>& m) {
    w_.u64(m.size());
    for (const auto& [key, value] : m.sorted_items()) {
      put(key);
      put(value);
    }
  }

  template <class T>
  void put(const T& v) {
    fields(*this, v);
  }

  sim::SnapshotWriter& w_;
};

/// The reading adaptor, and the one place that holds the decode rules:
/// errors are sticky (SnapshotReader), every element loop stops at the
/// first error, and nothing is reserved from a count read from the
/// image. A corrupt or hostile image therefore degrades into a clean
/// Status, never UB or an allocation the image sized.
class In {
 public:
  explicit In(sim::SnapshotReader& r) : r_(r) {}

  template <class... Values>
  void operator()(Values&... values) {
    (get(values), ...);
  }

  template <class... Values>
  void section(std::uint32_t id, Values&... values) {
    r_.enter(id);
    (get(values), ...);
    r_.leave();
  }

 private:
  void get(bool& v) { v = r_.boolean(); }
  void get(int& v) { v = static_cast<int>(r_.i64()); }
  void get(std::uint8_t& v) { v = r_.u8(); }
  void get(std::uint32_t& v) { v = r_.u32(); }
  void get(std::uint64_t& v) { v = r_.u64(); }
  void get(std::string& v) { v = r_.str(); }
  void get(const char*& label) { label = util::Trace::label(r_.str()); }
  void get(TimePoint& v) { v = r_.time_point(); }
  void get(Counters& v) { v = sim::get_counters(r_); }

  void get(util::Trace& v) {
    std::vector<util::Span> spans;
    get(spans);
    for (util::Span& s : spans) {
      v.emit(std::move(s.alert_id), s.component, s.stage, s.start, s.end,
             std::move(s.detail));
    }
  }

  template <class T>
  void get(std::vector<T>& v) {
    const std::uint64_t n = r_.u64();
    for (std::uint64_t i = 0; i < n && r_.ok(); ++i) get(v.emplace_back());
  }

  // A std::map or a FlatMap.
  template <class Map>
    requires requires { typename Map::mapped_type; }
  void get(Map& m) {
    const std::uint64_t n = r_.u64();
    for (std::uint64_t i = 0; i < n && r_.ok(); ++i) {
      typename Map::key_type key;
      typename Map::mapped_type value;
      get(key);
      get(value);
      m[std::move(key)] = std::move(value);
    }
  }

  template <class T>
  void get(T& v) {
    fields(*this, v);
  }

  sim::SnapshotReader& r_;
};

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
  Out out(w);
  const Meta meta{encode_shape(o), task.shard_id, task.seed};
  const sim::InvariantChecker::State checker = d.checker.save_state();
  shard_sections(out, meta, d, checker);
  return w.finish();
}

namespace {

Result<ShardDriver> decode_shard(const ResumableOptions& o,
                                 const ShardTask& task,
                                 std::string_view image) {
  sim::SnapshotReader r(image, kShardImageKind);
  In in(r);
  Meta meta;
  ShardDriver d;
  sim::InvariantChecker::State checker;
  shard_sections(in, meta, d, checker);
  const Status status = r.finish();
  if (!status.ok()) return make_error(status.error());
  // A checkpoint is only replayable under the exact run shape it was
  // cut from; a mismatch would silently diverge, so it is an error.
  if (meta.shape != encode_shape(o)) {
    return make_error("checkpoint run-shape mismatch for shard " +
                      std::to_string(task.shard_id));
  }
  if (meta.shard_id != task.shard_id || meta.seed != task.seed) {
    return make_error("checkpoint shard identity mismatch (shard " +
                      std::to_string(meta.shard_id) + ")");
  }
  if (d.next_epoch == 0 ||
      d.next_epoch >= static_cast<std::uint32_t>(o.epochs)) {
    return make_error("checkpoint epoch out of range: " +
                      std::to_string(d.next_epoch));
  }
  if (d.cursor > d.plan.size()) {
    return make_error("checkpoint plan cursor out of range");
  }
  d.checker.restore_state(checker);
  return d;
}

}  // namespace

// --- Fleet image ------------------------------------------------------------

std::string encode_fleet(const ResumableOptions& o,
                         const std::vector<ShardDriver>& drivers,
                         std::uint32_t next_epoch) {
  sim::SnapshotWriter w(kFleetImageKind);
  Out out(w);
  out.section(kSecFleetMeta, o.fleet.base_seed, drivers.size(), next_epoch);
  for (const ShardDriver& d : drivers) out.section(kSecFleetShard, d.image);
  return w.finish();
}

Result<std::vector<ShardDriver>> decode_fleet(const ResumableOptions& o,
                                              std::string_view image) {
  sim::SnapshotReader r(image, kFleetImageKind);
  In in(r);
  std::uint64_t base_seed = 0;
  std::uint64_t shards = 0;
  std::uint32_t next_epoch = 0;
  in.section(kSecFleetMeta, base_seed, shards, next_epoch);
  if (!r.ok()) return make_error(r.status().error());
  // The run shape and the epoch range are pinned per shard image.
  if (base_seed != o.fleet.base_seed || shards != o.fleet.shards) {
    return make_error("fleet checkpoint seed/shard-count mismatch");
  }
  std::vector<std::string> blobs;
  for (std::uint64_t i = 0; i < shards && r.ok(); ++i) {
    in.section(kSecFleetShard, blobs.emplace_back());
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
