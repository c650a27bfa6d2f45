// Resume-equivalence matrix (DESIGN.md §15, experiment E13): a fleet
// run that checkpoints at epoch k, dies, and resumes from the decoded
// image in fresh worlds must be indistinguishable from the run that
// never died — byte-identical correctness_json() and byte-identical
// JSONL lifecycle traces — across seeds × checkpoint epochs ×
// {portal, chaos, storm} workloads, serial == threaded.
//
// The fast tier-1 cases prove one cell per workload kind; the full
// matrix runs under `ctest -L slow`. tools/resume_roundtrip.py drives
// the same proof across two *processes* (checkpoint written by one,
// resumed by another), closing the in-process loophole.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>

#include "fleet/resume.h"
#include "sim/snapshot.h"
#include "test_world.h"
#include "util/stats.h"
#include "util/trace.h"

namespace simba::fleet {
namespace {

using testing::resume_options;

/// The A == B+C proof for one cell: A runs uninterrupted, B checkpoints
/// after epoch k and dies, C decodes B's image into fresh worlds and
/// finishes. A and C must agree byte for byte.
void expect_resume_equivalent(const ResumableOptions& options, int k,
                              const std::string& context) {
  const ResumableRun a = run_resumable_fleet(options);
  ASSERT_TRUE(a.completed) << context;
  ASSERT_GT(a.report.counters.get("alerts.sent"), 0) << context;
  ASSERT_GT(a.report.counters.get("alerts.delivered"), 0) << context;

  Counters ckpt;
  ResumeControl cut;
  cut.checkpoint_after_epoch = k;
  cut.stop_at_checkpoint = true;
  const ResumableRun b = run_resumable_fleet(options, cut, &ckpt);
  ASSERT_FALSE(b.completed) << context;
  ASSERT_FALSE(b.checkpoint.empty()) << context;
  EXPECT_EQ(ckpt.get("ckpt.saved"),
            static_cast<std::int64_t>(options.fleet.shards))
      << context;
  EXPECT_EQ(ckpt.get("ckpt.bytes"),
            static_cast<std::int64_t>(b.checkpoint.size()))
      << context;

  const Result<ResumableRun> c = resume_fleet(options, b.checkpoint, {}, &ckpt);
  ASSERT_TRUE(c.ok()) << context << ": " << c.error();
  ASSERT_TRUE(c.value().completed) << context;
  EXPECT_EQ(ckpt.get("ckpt.restored"),
            static_cast<std::int64_t>(options.fleet.shards))
      << context;
  EXPECT_EQ(ckpt.get("ckpt.decode_failed"), 0) << context;

  EXPECT_EQ(a.report.correctness_json(), c.value().report.correctness_json())
      << context << ": resumed run diverged from the uninterrupted one";
  EXPECT_EQ(a.report.trace.to_jsonl(), c.value().report.trace.to_jsonl())
      << context << ": resumed trace diverged";
  // The resumed rows start from decoded labels, which share rows with
  // the live literals only through the table's text lookup.
  EXPECT_EQ(a.report.trace.stage_report(),
            c.value().report.trace.stage_report())
      << context << ": resumed stage table diverged";
}

// --- One tier-1 cell per workload kind -------------------------------------

TEST(ResumeEquivalenceTest, ChaosCheckpointRestoresExactly) {
  expect_resume_equivalent(resume_options(ResumeKind::kChaos, 11), 1, "chaos");
}

TEST(ResumeEquivalenceTest, PortalCheckpointRestoresExactly) {
  expect_resume_equivalent(resume_options(ResumeKind::kPortal, 11), 2,
                           "portal");
}

TEST(ResumeEquivalenceTest, SourceImPortalCheckpointRestoresExactly) {
  // Source-IM portal acks cross the boundary inside the checkpoint.
  ResumableOptions options = resume_options(ResumeKind::kPortal, 11);
  std::get<PortalWorkloadOptions>(options.workload).traffic =
      Traffic::kSourceIm;
  expect_resume_equivalent(options, 1, "portal source IM");
  const ResumableRun run = run_resumable_fleet(options);
  EXPECT_EQ(run.report.counters.get("alerts.acked"),
            run.report.counters.get("alerts.sent"));
  EXPECT_EQ(run.report.counters.get("conservation.ack_unlogged"), 0);
}

TEST(ResumeEquivalenceTest, StormCheckpointRestoresExactly) {
  expect_resume_equivalent(resume_options(ResumeKind::kStorm, 11), 1, "storm");
}

TEST(ResumeEquivalenceTest, CheckpointingIsObservationOnly) {
  // Cutting an image without stopping must not perturb the run: the
  // encoder only reads the boundary state.
  const ResumableOptions options = resume_options(ResumeKind::kChaos, 23);
  const ResumableRun plain = run_resumable_fleet(options);
  ResumeControl cut;
  cut.checkpoint_after_epoch = 1;
  const ResumableRun observed = run_resumable_fleet(options, cut);
  ASSERT_TRUE(observed.completed);
  ASSERT_FALSE(observed.checkpoint.empty());
  EXPECT_EQ(plain.report.correctness_json(),
            observed.report.correctness_json());
}

TEST(ResumeEquivalenceTest, ThreadedResumeMatchesSerial) {
  ResumableOptions serial = resume_options(ResumeKind::kChaos, 31);
  serial.fleet.shards = 4;
  ResumableOptions threaded = serial;
  threaded.fleet.threads = 4;

  const ResumableRun a = run_resumable_fleet(serial);
  const ResumableRun a_threaded = run_resumable_fleet(threaded);
  EXPECT_EQ(a.report.correctness_json(), a_threaded.report.correctness_json());

  ResumeControl cut;
  cut.checkpoint_after_epoch = 2;
  cut.stop_at_checkpoint = true;
  const ResumableRun b = run_resumable_fleet(serial, cut);
  const ResumableRun b_threaded = run_resumable_fleet(threaded, cut);
  // The checkpoint image itself is thread-count-invariant.
  EXPECT_EQ(b.checkpoint, b_threaded.checkpoint);

  const Result<ResumableRun> c = resume_fleet(threaded, b.checkpoint);
  ASSERT_TRUE(c.ok()) << c.error();
  EXPECT_EQ(a.report.correctness_json(), c.value().report.correctness_json());
}

TEST(ResumeTest, CopyOfResumedTraceOutlivesTheRun) {
  // Decoded span labels have static storage: a copy of a resumed trace
  // stays readable after the run that decoded them is destroyed.
  const ResumableOptions options = resume_options(ResumeKind::kChaos, 11);
  ResumeControl cut;
  cut.checkpoint_after_epoch = 1;
  cut.stop_at_checkpoint = true;
  const std::string image = run_resumable_fleet(options, cut).checkpoint;
  ASSERT_FALSE(image.empty());

  std::string jsonl;
  util::Trace copy;
  {
    const Result<ResumableRun> run = resume_fleet(options, image);
    ASSERT_TRUE(run.ok()) << run.error();
    jsonl = run.value().report.trace.to_jsonl();
    copy = run.value().report.trace;
  }
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(copy.to_jsonl(), jsonl);
}

// --- Malformed / mismatched images -----------------------------------------

std::string cut_checkpoint(const ResumableOptions& options, int k) {
  ResumeControl cut;
  cut.checkpoint_after_epoch = k;
  cut.stop_at_checkpoint = true;
  return run_resumable_fleet(options, cut).checkpoint;
}

TEST(ResumeDecodeTest, TruncatedImageFailsCleanly) {
  const ResumableOptions options = resume_options(ResumeKind::kChaos, 5);
  const std::string image = cut_checkpoint(options, 1);
  Counters ckpt;
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{3}, image.size() / 2, image.size() - 1}) {
    const auto result = resume_fleet(
        options, std::string_view(image).substr(0, len), {}, &ckpt);
    EXPECT_FALSE(result.ok()) << "truncation to " << len << " decoded";
  }
  EXPECT_EQ(ckpt.get("ckpt.decode_failed"), 4);
  EXPECT_EQ(ckpt.get("ckpt.restored"), 0);
}

TEST(ResumeDecodeTest, BitFlippedImageFailsCleanly) {
  const ResumableOptions options = resume_options(ResumeKind::kChaos, 5);
  const std::string image = cut_checkpoint(options, 1);
  // A deterministic spread of single-bit flips across the image; every
  // byte is either structural (self-checked) or CRC-covered.
  for (std::size_t byte = 0; byte < image.size();
       byte += 1 + image.size() / 97) {
    std::string corrupt = image;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x20);
    const auto result = resume_fleet(options, corrupt);
    EXPECT_FALSE(result.ok()) << "flip at byte " << byte << " decoded";
  }
}

TEST(ResumeDecodeTest, MismatchedOptionsAreRejected) {
  const ResumableOptions options = resume_options(ResumeKind::kChaos, 5);
  const std::string image = cut_checkpoint(options, 1);

  ResumableOptions wrong_kind = options;
  wrong_kind.workload = resume_options(ResumeKind::kStorm, 5).workload;
  EXPECT_FALSE(resume_fleet(wrong_kind, image).ok());

  ResumableOptions wrong_seed = options;
  wrong_seed.fleet.base_seed = 6;
  EXPECT_FALSE(resume_fleet(wrong_seed, image).ok());

  ResumableOptions wrong_shape = options;
  std::get<ChaosWorkloadOptions>(wrong_shape.workload).alerts_per_user_day =
      10.0;
  const auto result = resume_fleet(wrong_shape, image);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("mismatch"), std::string::npos)
      << result.error();
}

// Little-endian field access for surgical image edits.
std::uint64_t read_le(const std::string& image, std::size_t at, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(image[at + i]))
         << (8 * i);
  }
  return v;
}

void write_le(std::string& image, std::size_t at, int bytes,
              std::uint64_t v) {
  for (int i = 0; i < bytes; ++i) {
    image[at + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

/// Offset of the section header after the one at `at`.
std::size_t next_section(const std::string& image, std::size_t at) {
  return at + 12 + read_le(image, at + 4, 8) + 4;
}

/// Offset just past the length-prefixed string at `at`.
std::size_t skip_str(const std::string& image, std::size_t at) {
  return at + 4 + read_le(image, at, 4);
}

/// Re-stamps the CRC of the section whose header is at `at`.
void restamp_crc(std::string& image, std::size_t at) {
  const std::size_t length = read_le(image, at + 4, 8);
  write_le(image, at + 12 + length, 4,
           sim::snapshot_crc32(
               reinterpret_cast<const unsigned char*>(image.data()) + at + 12,
               length));
}

TEST(ResumeDecodeTest, HugeCountWithValidCrcFailsCleanly) {
  // A CRC only proves the bytes are the ones written, not that they
  // are sane: a count read from the image must never size an
  // allocation. Patch the header count of the first mailbox mail to
  // 2^40, re-stamp both CRCs over it, and expect a clean rejection.
  const ResumableOptions options = resume_options(ResumeKind::kPortal, 11);
  std::string image = cut_checkpoint(options, 1);
  ASSERT_FALSE(image.empty());

  constexpr std::size_t kHeader = 16;  // magic | version | kind | count
  // Fleet image: FleetMeta, then shard 0's FleetShard section, whose
  // payload is the shard image as one length-prefixed string.
  const std::size_t fleet_shard = next_section(image, kHeader);
  const std::size_t shard = fleet_shard + 12 + 4;
  // Shard image: Meta, Clock, Host, User, then Email.
  std::size_t email = shard + kHeader;
  for (int i = 0; i < 4; ++i) email = next_section(image, email);
  ASSERT_EQ(read_le(image, email, 4), 5u) << "not the Email section";

  // Email payload: u64 mailboxes, each (str address, u64 mail count,
  // mails); a mail is u64 id, four strings, then the header count.
  std::size_t at = email + 12;
  const std::uint64_t mailboxes = read_le(image, at, 8);
  at += 8;
  std::size_t header_count = 0;
  for (std::uint64_t box = 0; box < mailboxes && header_count == 0; ++box) {
    at = skip_str(image, at);
    const std::uint64_t mails = read_le(image, at, 8);
    at += 8;
    if (mails == 0) continue;
    at += 8;  // mail id
    for (int field = 0; field < 4; ++field) at = skip_str(image, at);
    header_count = at;
  }
  ASSERT_NE(header_count, 0u) << "no mailbox holds mail at the boundary";
  write_le(image, header_count, 8, std::uint64_t{1} << 40);
  restamp_crc(image, email);
  restamp_crc(image, fleet_shard);

  Counters ckpt;
  const auto result = resume_fleet(options, image, {}, &ckpt);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(ckpt.get("ckpt.decode_failed"), 1);
}

// --- The full matrix (ctest -L slow) ---------------------------------------

class ResumeMatrixTest : public ::testing::TestWithParam<ResumeKind> {};

TEST_P(ResumeMatrixTest, SeedsTimesCheckpointEpochs) {
  const ResumeKind kind = GetParam();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const int k : {1, 2, 3}) {
      expect_resume_equivalent(
          resume_options(kind, seed, /*epochs=*/4), k,
          std::string(to_string(kind)) + "/seed " + std::to_string(seed) +
              "/checkpoint after epoch " + std::to_string(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, ResumeMatrixTest,
                         ::testing::Values(ResumeKind::kPortal,
                                           ResumeKind::kChaos,
                                           ResumeKind::kStorm),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace simba::fleet
