// Versioned binary checkpoint images for deterministic crash-restart.
//
// A snapshot is the persistent half of a world: everything a real
// deployment would hold on disk or in long-lived server state (the
// pessimistic alert log, mailboxes, user sighting history, counters,
// the virtual clock). The volatile half — pending kernel events,
// in-flight bus messages, live delivery attempts — is deliberately NOT
// captured: a checkpoint models a process image that died, so restore
// is a *crash-restart* and recovery flows through the paper's own path
// (log replay on the next MAB start). DESIGN.md §15 states the
// restore-equivalence invariant this format is proven by.
//
// Wire format (all integers little-endian, fixed width):
//
//   header:   magic u32 | version u32 | image_kind u32 | section_count u32
//   section:  section_id u32 | payload_len u64 | payload | crc32 u32
//
// Sections appear in a strict, image-kind-defined order; the reader
// verifies the id of every section it enters, so a reordered image is
// rejected, not misparsed. The CRC covers the payload bytes only and is
// checked before any payload parsing, so a bit flip can never steer the
// decoder. Every decode failure is a clean util::Status — malformed
// input must not be able to cause UB (tests/snapshot_test.cc fuzzes
// truncations, bit flips, version skew, and section reordering under
// ASan+UBSan).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"
#include "util/stats.h"
#include "util/time.h"

namespace simba::sim {

/// "SMBA" — identifies any SIMBA snapshot image.
inline constexpr std::uint32_t kSnapshotMagic = 0x53'4d'42'41u;
/// Bumped on any incompatible layout change; readers reject mismatches.
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) of `data`.
std::uint32_t snapshot_crc32(const unsigned char* data, std::size_t size);

/// Appends primitives into a growing image. Sections are length-prefixed
/// and CRC-stamped on end_section(); finish() patches the section count
/// and releases the buffer.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::uint32_t image_kind);

  void begin_section(std::uint32_t section_id);
  void end_section();

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  /// Doubles travel as their IEEE-754 bit pattern — restore is
  /// bit-exact, never a parse/print round trip.
  void f64(double v);
  void boolean(bool v);
  /// Length-prefixed (u32) byte string.
  void str(std::string_view v);
  void time_point(TimePoint t) { i64(t.time_since_epoch().count()); }
  void dur(Duration d) { i64(d.count()); }

  std::size_t size() const { return buffer_.size(); }
  std::string finish();

 private:
  std::string buffer_;
  std::size_t payload_start_ = 0;  // current section's payload offset
  std::uint32_t section_count_ = 0;
  bool in_section_ = false;
};

/// Decodes an image produced by SnapshotWriter. Errors are sticky: the
/// first malformed read records a Status and every subsequent read
/// returns a zero value without touching the input, so decode code can
/// read a whole struct straight through and check status() once at the
/// end. All reads are bounds-checked against the section payload.
class SnapshotReader {
 public:
  /// Verifies the header (magic, version, image kind) immediately;
  /// check status() before trusting anything else.
  SnapshotReader(std::string_view image, std::uint32_t image_kind);

  /// Enters the next section, which must carry exactly `section_id`
  /// (strict ordering) and a valid CRC. Returns false if the image is
  /// already bad or the section is malformed.
  bool enter(std::uint32_t section_id);
  /// Leaves the current section; the payload must be fully consumed.
  bool leave();

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();
  TimePoint time_point() { return TimePoint{Duration{i64()}}; }
  Duration dur() { return Duration{i64()}; }

  bool ok() const { return error_.empty(); }
  Status status() const;
  /// ok() plus "every section consumed": the terminal check.
  Status finish();

 private:
  void fail(std::string message);
  bool need(std::size_t n);
  std::uint32_t raw_u32();
  std::uint64_t raw_u64();

  std::string_view image_;
  std::size_t pos_ = 0;
  std::size_t section_end_ = 0;
  std::uint32_t sections_left_ = 0;
  bool in_section_ = false;
  std::string error_;
};

// --- Counter-bag codec -------------------------------------------------------
// A u64 count, then (name str, value i64) pairs in name order. Every
// other persisted type is a field list in src/fleet/checkpoint.cc, the
// one place that states the checkpoint image format.

void put_counters(SnapshotWriter& w, const Counters& counters);
Counters get_counters(SnapshotReader& r);

}  // namespace simba::sim
