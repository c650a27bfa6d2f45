// Snapshot codec suite (DESIGN.md §15): primitive and counter-bag round
// trips are bit-exact, and the decoder survives hostile images — every
// truncation, every single-bit flip, version skew, and section
// reordering must come back as a clean Status, never UB. The whole
// file runs under the ASan+UBSan configuration (-DSIMBA_SANITIZE).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/snapshot.h"
#include "util/stats.h"

namespace simba::sim {
namespace {

constexpr std::uint32_t kKind = 7;
constexpr std::uint32_t kSectionA = 1;
constexpr std::uint32_t kSectionB = 2;

// One representative two-section image exercising every primitive.
std::string sample_image() {
  SnapshotWriter w(kKind);
  w.begin_section(kSectionA);
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.boolean(true);
  w.str("checkpoint");
  w.time_point(kTimeZero + hours(3));
  w.dur(minutes(15));
  w.end_section();
  w.begin_section(kSectionB);
  w.str("");
  w.str(std::string(300, 'x'));  // str length prefix beyond one byte
  w.u64(7);
  w.end_section();
  return w.finish();
}

// Mirrors sample_image()'s layout; the terminal Status is the verdict.
Status decode_sample(std::string_view image) {
  SnapshotReader r(image, kKind);
  r.enter(kSectionA);
  (void)r.u8();
  (void)r.u32();
  (void)r.u64();
  (void)r.i64();
  (void)r.f64();
  (void)r.boolean();
  (void)r.str();
  (void)r.time_point();
  (void)r.dur();
  r.leave();
  r.enter(kSectionB);
  (void)r.str();
  (void)r.str();
  (void)r.u64();
  r.leave();
  return r.finish();
}

TEST(SnapshotCodecTest, PrimitivesRoundTripBitExact) {
  const std::string image = sample_image();
  SnapshotReader r(image, kKind);
  ASSERT_TRUE(r.enter(kSectionA)) << r.status().error();
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "checkpoint");
  EXPECT_EQ(r.time_point(), kTimeZero + hours(3));
  EXPECT_EQ(r.dur(), minutes(15));
  ASSERT_TRUE(r.leave()) << r.status().error();
  ASSERT_TRUE(r.enter(kSectionB));
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string(300, 'x'));
  EXPECT_EQ(r.u64(), 7u);
  ASSERT_TRUE(r.leave());
  EXPECT_TRUE(r.finish().ok()) << r.finish().error();
}

TEST(SnapshotCodecTest, CountersRoundTrip) {
  Counters counters;
  counters.bump("a", 3);
  counters.bump("b", -7);
  SnapshotWriter w(kKind);
  w.begin_section(kSectionA);
  put_counters(w, counters);
  w.end_section();
  const std::string image = w.finish();

  SnapshotReader r(image, kKind);
  ASSERT_TRUE(r.enter(kSectionA));
  const Counters back = get_counters(r);
  ASSERT_TRUE(r.leave());
  ASSERT_TRUE(r.finish().ok());
  EXPECT_EQ(back.all(), counters.all());
}

// ---------------------------------------------------------------------------
// Hostile images: the decode fuzz matrix

TEST(SnapshotFuzzTest, ValidImageDecodes) {
  ASSERT_TRUE(decode_sample(sample_image()).ok());
}

TEST(SnapshotFuzzTest, EveryTruncationFailsCleanly) {
  const std::string image = sample_image();
  for (std::size_t len = 0; len < image.size(); ++len) {
    const Status status = decode_sample(std::string_view(image).substr(0, len));
    EXPECT_FALSE(status.ok()) << "truncation to " << len
                              << " bytes decoded successfully";
  }
}

TEST(SnapshotFuzzTest, EverySingleBitFlipFailsCleanly) {
  // Exhaustive: header fields self-check, structural fields are bounds-
  // checked, and the payload is CRC-covered — no single-bit corruption
  // may survive. (CRC-32 detects all single-bit errors by design, so
  // this is deterministic, not probabilistic.)
  const std::string image = sample_image();
  for (std::size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = image;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      const Status status = decode_sample(corrupt);
      EXPECT_FALSE(status.ok())
          << "bit flip at byte " << byte << " bit " << bit << " undetected";
    }
  }
}

TEST(SnapshotFuzzTest, VersionSkewIsRejected) {
  std::string image = sample_image();
  // Header layout: magic u32 | version u32 | ... little-endian.
  image[4] = static_cast<char>(kSnapshotVersion + 1);
  const Status status = decode_sample(image);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().find("version"), std::string::npos)
      << status.error();
}

TEST(SnapshotFuzzTest, WrongMagicIsRejected) {
  std::string image = sample_image();
  image[0] = 'Z';
  const Status status = decode_sample(image);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().find("magic"), std::string::npos) << status.error();
}

TEST(SnapshotFuzzTest, WrongImageKindIsRejected) {
  const std::string image = sample_image();
  SnapshotReader r(image, kKind + 1);
  EXPECT_FALSE(r.status().ok());
  EXPECT_FALSE(r.enter(kSectionA));
}

TEST(SnapshotFuzzTest, ReorderedSectionsAreRejected) {
  // Same sections, swapped order: the strict-order contract must
  // reject the image at enter(), not misparse section B as section A.
  SnapshotWriter w(kKind);
  w.begin_section(kSectionB);
  w.str("");
  w.str("payload");
  w.u64(7);
  w.end_section();
  w.begin_section(kSectionA);
  w.u8(1);
  w.end_section();
  const std::string image = w.finish();

  SnapshotReader r(image, kKind);
  EXPECT_FALSE(r.enter(kSectionA));
  EXPECT_FALSE(r.status().ok());
}

TEST(SnapshotFuzzTest, UnderconsumedSectionIsRejected) {
  const std::string image = sample_image();
  SnapshotReader r(image, kKind);
  ASSERT_TRUE(r.enter(kSectionA));
  (void)r.u8();
  EXPECT_FALSE(r.leave());  // payload not fully consumed
  EXPECT_FALSE(r.finish().ok());
}

TEST(SnapshotFuzzTest, UnconsumedSectionsFailFinish) {
  const std::string image = sample_image();
  SnapshotReader r(image, kKind);
  ASSERT_TRUE(r.enter(kSectionA));
  // Sticky-reader contract: straight-line reads, one verdict at the end.
  (void)r.u8();
  (void)r.u32();
  (void)r.u64();
  (void)r.i64();
  (void)r.f64();
  (void)r.boolean();
  (void)r.str();
  (void)r.time_point();
  (void)r.dur();
  ASSERT_TRUE(r.leave());
  EXPECT_FALSE(r.finish().ok());  // section B never consumed
}

TEST(SnapshotFuzzTest, ReadsPastTheSectionReturnZeroesNotUB) {
  SnapshotWriter w(kKind);
  w.begin_section(kSectionA);
  w.u8(1);
  w.end_section();
  const std::string image = w.finish();

  SnapshotReader r(image, kKind);
  ASSERT_TRUE(r.enter(kSectionA));
  (void)r.u8();
  // Every further read overruns the payload: sticky error, zero values.
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.finish().ok());
}

}  // namespace
}  // namespace simba::sim
