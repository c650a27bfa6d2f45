#include "sim/snapshot.h"

#include <cassert>
#include <cstring>
#include <utility>

namespace simba::sim {
namespace {

std::array<std::uint32_t, 256> build_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t snapshot_crc32(const unsigned char* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = build_crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- SnapshotWriter --------------------------------------------------------

SnapshotWriter::SnapshotWriter(std::uint32_t image_kind) {
  u32(kSnapshotMagic);
  u32(kSnapshotVersion);
  u32(image_kind);
  u32(0);  // section count, patched by finish()
}

void SnapshotWriter::begin_section(std::uint32_t section_id) {
  assert(!in_section_);
  in_section_ = true;
  u32(section_id);
  u64(0);  // payload length, patched by end_section()
  payload_start_ = buffer_.size();
}

void SnapshotWriter::end_section() {
  assert(in_section_);
  in_section_ = false;
  const std::uint64_t length = buffer_.size() - payload_start_;
  for (int i = 0; i < 8; ++i) {
    buffer_[payload_start_ - 8 + i] =
        static_cast<char>((length >> (8 * i)) & 0xFFu);
  }
  const std::uint32_t crc = snapshot_crc32(
      reinterpret_cast<const unsigned char*>(buffer_.data()) + payload_start_,
      static_cast<std::size_t>(length));
  u32(crc);
  ++section_count_;
}

void SnapshotWriter::u8(std::uint8_t v) {
  buffer_.push_back(static_cast<char>(v));
}

void SnapshotWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void SnapshotWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void SnapshotWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void SnapshotWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void SnapshotWriter::boolean(bool v) { u8(v ? 1 : 0); }

void SnapshotWriter::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buffer_.append(v.data(), v.size());
}

std::string SnapshotWriter::finish() {
  assert(!in_section_);
  // Patch the section count at header offset 12.
  for (int i = 0; i < 4; ++i) {
    buffer_[12 + i] = static_cast<char>((section_count_ >> (8 * i)) & 0xFFu);
  }
  return std::move(buffer_);
}

// --- SnapshotReader --------------------------------------------------------

SnapshotReader::SnapshotReader(std::string_view image, std::uint32_t image_kind)
    : image_(image) {
  // The header lives outside any section; borrow the bounds machinery
  // by treating the whole image as readable for these four fields.
  section_end_ = image_.size();
  const std::uint32_t magic = u32();
  if (ok() && magic != kSnapshotMagic) {
    fail("bad magic: not a SIMBA snapshot image");
  }
  const std::uint32_t version = u32();
  if (ok() && version != kSnapshotVersion) {
    fail("snapshot version skew: image has v" + std::to_string(version) +
         ", reader expects v" + std::to_string(kSnapshotVersion));
  }
  const std::uint32_t kind = u32();
  if (ok() && kind != image_kind) {
    fail("snapshot image kind mismatch: image has kind " +
         std::to_string(kind) + ", expected " + std::to_string(image_kind));
  }
  sections_left_ = u32();
  section_end_ = 0;  // no section entered yet
}

bool SnapshotReader::enter(std::uint32_t section_id) {
  if (!ok()) return false;
  assert(!in_section_);
  if (sections_left_ == 0) {
    fail("section " + std::to_string(section_id) +
         ": image has no sections left");
    return false;
  }
  // Section header is read against the raw remainder of the image.
  section_end_ = image_.size();
  const std::uint32_t id = raw_u32();
  const std::uint64_t length = raw_u64();
  if (!ok()) return false;
  if (id != section_id) {
    fail("section out of order: expected id " + std::to_string(section_id) +
         ", found id " + std::to_string(id));
    return false;
  }
  if (length > image_.size() - pos_ ||
      image_.size() - pos_ - static_cast<std::size_t>(length) < 4) {
    fail("section " + std::to_string(id) +
         ": payload length overruns the image");
    return false;
  }
  const std::uint32_t stored_crc =
      static_cast<std::uint32_t>(
          static_cast<unsigned char>(image_[pos_ + length])) |
      static_cast<std::uint32_t>(
          static_cast<unsigned char>(image_[pos_ + length + 1]))
          << 8 |
      static_cast<std::uint32_t>(
          static_cast<unsigned char>(image_[pos_ + length + 2]))
          << 16 |
      static_cast<std::uint32_t>(
          static_cast<unsigned char>(image_[pos_ + length + 3]))
          << 24;
  const std::uint32_t actual_crc = snapshot_crc32(
      reinterpret_cast<const unsigned char*>(image_.data()) + pos_,
      static_cast<std::size_t>(length));
  if (stored_crc != actual_crc) {
    fail("section " + std::to_string(id) + ": CRC mismatch");
    return false;
  }
  in_section_ = true;
  section_end_ = pos_ + static_cast<std::size_t>(length);
  --sections_left_;
  return true;
}

bool SnapshotReader::leave() {
  if (!ok()) return false;
  assert(in_section_);
  if (pos_ != section_end_) {
    fail("section payload not fully consumed (" +
         std::to_string(section_end_ - pos_) + " bytes left)");
    return false;
  }
  in_section_ = false;
  pos_ += 4;  // skip the already-verified CRC
  section_end_ = 0;
  return true;
}

std::uint8_t SnapshotReader::u8() {
  if (!need(1)) return 0;
  return static_cast<std::uint8_t>(image_[pos_++]);
}

std::uint32_t SnapshotReader::u32() {
  if (!need(4)) return 0;
  return raw_u32();
}

std::uint64_t SnapshotReader::u64() {
  if (!need(8)) return 0;
  return raw_u64();
}

std::int64_t SnapshotReader::i64() { return static_cast<std::int64_t>(u64()); }

double SnapshotReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool SnapshotReader::boolean() { return u8() != 0; }

std::string SnapshotReader::str() {
  const std::uint32_t length = u32();
  if (!ok()) return {};
  if (!need(length)) return {};
  std::string out(image_.substr(pos_, length));
  pos_ += length;
  return out;
}

Status SnapshotReader::status() const {
  if (ok()) return Status::success();
  return Status::failure("snapshot decode: " + error_);
}

Status SnapshotReader::finish() {
  if (ok() && in_section_) fail("finish() inside an open section");
  if (ok() && sections_left_ != 0) {
    fail(std::to_string(sections_left_) + " declared sections never read");
  }
  if (ok() && pos_ != image_.size()) {
    fail("trailing bytes after the last section");
  }
  return status();
}

void SnapshotReader::fail(std::string message) {
  if (error_.empty()) {
    error_ = std::move(message) + " (offset " + std::to_string(pos_) + ")";
  }
}

bool SnapshotReader::need(std::size_t n) {
  if (!ok()) return false;
  if (section_end_ < pos_ || section_end_ - pos_ < n) {
    fail("truncated: need " + std::to_string(n) + " bytes");
    return false;
  }
  return true;
}

std::uint32_t SnapshotReader::raw_u32() {
  if (!need(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(image_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t SnapshotReader::raw_u64() {
  if (!need(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(image_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

// --- Counter-bag codec -----------------------------------------------------

void put_counters(SnapshotWriter& w, const Counters& counters) {
  const auto sorted = counters.all();
  w.u64(sorted.size());
  for (const auto& [name, value] : sorted) {
    w.str(name);
    w.i64(value);
  }
}

Counters get_counters(SnapshotReader& r) {
  Counters counters;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    const std::string name = r.str();
    const std::int64_t value = r.i64();
    if (r.ok()) counters.add(name, value);
  }
  return counters;
}

}  // namespace simba::sim
