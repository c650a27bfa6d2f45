// Golden suite: the lifecycle trace of a single-user portal run, the
// correctness report of a small fleet and a fleet checkpoint image are
// pure functions of the seed, so their canonical exports are
// byte-identical run over run, platform over platform. Each seed's
// trace is checked against a golden file under testdata/traces/, each
// workload entry point's correctness_json() against one under
// testdata/reports/, and each resumable kind's image size and hash
// against one under testdata/checkpoints/.
//
// When a deliberate change to the alert path alters the goldens,
// regenerate them and review the diff like any other code:
//   ./build/tests/trace_test --regen
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "fleet/chaos_workload.h"
#include "fleet/fleet.h"
#include "fleet/portal_workload.h"
#include "fleet/resume.h"
#include "fleet/storm_workload.h"
#include "sim/chaos.h"
#include "test_world.h"
#include "util/flat_map.h"
#include "util/trace.h"

namespace simba::fleet {
namespace {

bool g_regen = false;

const char* const kTestdata = SIMBA_TRACE_TESTDATA;
const char* const kReportTestdata = SIMBA_REPORT_TESTDATA;
const char* const kCheckpointTestdata = SIMBA_CHECKPOINT_TESTDATA;

/// Compares `actual` with the golden file at `path`, or rewrites the
/// file under --regen.
void expect_golden(const std::string& path, const std::string& actual) {
  if (g_regen) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — regenerate with: trace_test --regen";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), actual)
      << path << " drifted; if the alert path changed deliberately, "
      << "regenerate with: trace_test --regen and review the diff";
}

// Small but complete: IM-with-ack traffic through the fast loss-free
// models, dense enough that classify/aggregate/filter/route, delivery
// blocks, log appends, and bus hops all appear in the trace.
PortalWorkloadOptions golden_workload() {
  PortalWorkloadOptions workload;
  workload.traffic = Traffic::kSourceIm;
  workload.world = testing::fast_fleet_world();
  workload.world.trace = true;
  workload.world.keep_spans = true;
  workload.alerts_per_user_day = 48.0;
  workload.horizon = hours(2);
  workload.drain = minutes(30);
  return workload;
}

std::string run_trace_jsonl(std::uint64_t seed) {
  const PortalWorkloadOptions workload = golden_workload();
  const ShardTask task{0, shard_seed(seed, 0)};
  const ShardResult result = run_portal_shard(task, workload);
  return result.trace.to_jsonl();
}

std::string golden_path(std::uint64_t seed) {
  return std::string(kTestdata) + "/portal_seed" + std::to_string(seed) +
         ".jsonl";
}

class GoldenTraceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoldenTraceTest, PortalRunMatchesGoldenByteForByte) {
  const std::uint64_t seed = GetParam();
  const std::string jsonl = run_trace_jsonl(seed);
  ASSERT_FALSE(jsonl.empty());

  expect_golden(golden_path(seed), jsonl);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenTraceTest,
                         ::testing::Values(1u, 2u, 3u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(TraceDeterminismTest, RerunIsByteIdentical) {
  // The in-process half of the golden guarantee: two runs in the same
  // binary agree exactly, JSONL and per-stage latency report alike.
  EXPECT_EQ(run_trace_jsonl(7), run_trace_jsonl(7));

  const PortalWorkloadOptions workload = golden_workload();
  const ShardTask task{0, shard_seed(7, 0)};
  const ShardResult a = run_portal_shard(task, workload);
  const ShardResult b = run_portal_shard(task, workload);
  EXPECT_EQ(a.trace.stage_report(), b.trace.stage_report());
}

TEST(TraceContentTest, CoversEveryTracedComponent) {
  const PortalWorkloadOptions workload = golden_workload();
  const ShardTask task{0, shard_seed(1, 0)};
  const ShardResult result = run_portal_shard(task, workload);

  std::set<std::string> components;
  for (const util::Span& span : result.trace.spans()) {
    components.insert(span.component);
  }
  for (const char* component : {"bus", "log", "mab", "delivery"}) {
    EXPECT_TRUE(components.count(component) > 0)
        << "no '" << component << "' spans in a full portal run";
  }

  // Stage latencies are derivable and carry percentile support.
  const auto latency = result.trace.stage_latency();
  ASSERT_TRUE(latency.count("delivery.deliver") > 0);
  const Summary& deliver = latency.at("delivery.deliver");
  EXPECT_GT(deliver.count(), 0u);
  EXPECT_GE(deliver.percentile(99), deliver.percentile(50));
}

// --- Report goldens ---------------------------------------------------------
// One small two-shard fleet per workload entry point and configuration:
// fast models and short horizons keep the whole set well under a
// second, and the report pins every counter, summary and histogram.

struct ReportCase {
  std::string name;
  ShardBody body;
};

PortalWorkloadOptions portal_email_workload() {
  PortalWorkloadOptions workload;
  workload.traffic = Traffic::kPortalEmail;
  workload.world.fidelity = ModelFidelity::kCalibrated;
  workload.world.email_check_interval = minutes(15);
  workload.world.trace = true;
  workload.alerts_per_user_day = 48.0;
  workload.horizon = hours(3);
  workload.drain = hours(1);
  return workload;
}

ChaosWorkloadOptions chaos_workload(const sim::ChaosScenario& scenario) {
  ChaosWorkloadOptions workload;
  workload.world = testing::fast_fleet_world();
  workload.scenario = scenario;
  workload.horizon = hours(3);
  workload.drain = hours(1);
  return workload;
}

StormWorkloadOptions storm_workload(const core::OverloadOptions& overload,
                                    const std::string& scenario) {
  StormWorkloadOptions workload;
  workload.world = testing::fast_fleet_world();
  workload.world.overload = overload;
  if (!scenario.empty()) {
    workload.scenario = sim::ChaosScenario::preset(scenario);
  }
  workload.horizon = hours(2);
  workload.drain = hours(1);
  workload.background_per_day = 24.0;
  workload.critical_per_day = 96.0;
  workload.sensor_cascades = 2;
  workload.cascade_size = 40;
  workload.poll_bursts = 2;
  workload.burst_size = 40;
  return workload;
}

std::vector<ReportCase> report_cases() {
  std::vector<ReportCase> cases;
  const auto portal = [&](const std::string& name,
                          const PortalWorkloadOptions& workload) {
    cases.push_back({name, [workload](const ShardTask& task) {
                       return run_portal_shard(task, workload);
                     }});
  };
  const auto storm = [&](const std::string& name,
                         const StormWorkloadOptions& workload) {
    cases.push_back({name, [workload](const ShardTask& task) {
                       return run_storm_shard(task, workload);
                     }});
  };
  portal("portal_email", portal_email_workload());
  portal("portal_source_im", golden_workload());
  for (const sim::ChaosScenario& scenario : sim::ChaosScenario::presets()) {
    const ChaosWorkloadOptions workload = chaos_workload(scenario);
    cases.push_back({"chaos_" + scenario.name,
                     [workload](const ShardTask& task) {
                       return run_chaos_shard(task, workload);
                     }});
  }
  storm("storm_defended", storm_workload(storm_defenses(), ""));
  storm("storm_undefended", storm_workload(storm_no_defenses(), ""));
  storm("storm_crash", storm_workload(storm_defenses(), "storm_crash"));
  return cases;
}

class GoldenReportTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenReportTest, ReportMatchesGoldenByteForByte) {
  const ReportCase report_case = report_cases()[GetParam()];
  FleetOptions options;
  options.shards = 2;
  options.threads = 1;
  options.base_seed = 5;
  const FleetReport report = run_fleet(options, report_case.body);
  ASSERT_GT(report.counters.get("alerts.sent"), 0);
  expect_golden(std::string(kReportTestdata) + "/" + report_case.name +
                    ".json",
                report.correctness_json() + "\n");
}

INSTANTIATE_TEST_SUITE_P(
    EntryPoints, GoldenReportTest,
    ::testing::Range(std::size_t{0}, report_cases().size()),
    [](const auto& info) { return report_cases()[info.param].name; });

// --- The per-stage table -----------------------------------------------------
// emit() fills Trace's stage table directly; these pin it to the table
// a walk over every kept span gives.

/// The per-stage table built from the spans, in emission order.
std::map<std::string, Summary> table_from_spans(const util::Trace& trace) {
  std::map<std::string, Summary> stages;
  for (const util::Span& s : trace.spans()) {
    stages[std::string(s.component) + "." + s.stage].add(s.duration());
  }
  return stages;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Same stage keys, and per stage the same samples in the same order
/// and bit-identical mean, variance, min and max.
void expect_same_table(const std::map<std::string, Summary>& actual,
                       const std::map<std::string, Summary>& expected,
                       const std::string& context) {
  std::vector<std::string> actual_keys;
  for (const auto& [stage, summary] : actual) actual_keys.push_back(stage);
  std::vector<std::string> expected_keys;
  for (const auto& [stage, summary] : expected) expected_keys.push_back(stage);
  ASSERT_EQ(actual_keys, expected_keys) << context;
  for (const auto& [stage, want] : expected) {
    const Summary& got = actual.at(stage);
    EXPECT_EQ(got.samples(), want.samples()) << context << ": " << stage;
    EXPECT_EQ(bits(got.mean()), bits(want.mean())) << context << ": " << stage;
    EXPECT_EQ(bits(got.variance()), bits(want.variance()))
        << context << ": " << stage;
    EXPECT_EQ(bits(got.min()), bits(want.min())) << context << ": " << stage;
    EXPECT_EQ(bits(got.max()), bits(want.max())) << context << ": " << stage;
  }
}

/// Emits one script into two traces, spelling each label both as a
/// literal and as a Trace::label copy at another address — the
/// decoded-image case.
void emit_two_spellings(util::Trace& first, util::Trace& second) {
  const char* bus = util::Trace::label("bus");
  const char* send = util::Trace::label("send");
  const char* log = util::Trace::label("log");
  const char* append = util::Trace::label("append");
  const TimePoint t = kTimeZero;
  first.emit("a-1", "bus", "send", t, t + millis(250));
  first.emit("a-1", bus, send, t + seconds(1), t + seconds(1) + micros(333));
  first.emit("a-1", "log", "append", t + seconds(2), t + seconds(2.7));
  first.emit("a-2", "mab", "receive", t + seconds(3), "im from src");
  first.emit("a-2", "bus", send, t + seconds(4), t + seconds(4) + millis(7));
  second.emit("b-1", log, append, t, t + millis(15));
  second.emit("b-1", bus, send, t + seconds(1), t + seconds(1.1));
  second.emit("b-1", "bus", "send", t + seconds(2), t + seconds(2) + micros(9));
  second.emit("b-1", "delivery", "block", t + seconds(3), t + seconds(33.3));
  second.emit("b-2", "log", "append", t + seconds(4), t + seconds(4.01));
}

TEST(TraceTableTest, EmissionTableEqualsTheSpanWalk) {
  const char* literal = "bus";
  ASSERT_NE(util::Trace::label("bus"), literal);

  util::Trace kept;
  util::Trace kept_second;
  emit_two_spellings(kept, kept_second);
  kept.merge(std::move(kept_second));
  EXPECT_TRUE(kept_second.empty());
  // One row per text: bus.send, delivery.block, log.append, mab.receive.
  const std::map<std::string, Summary> reference = table_from_spans(kept);
  ASSERT_EQ(reference.size(), 4u);
  ASSERT_EQ(reference.at("bus.send").count(), 5u);
  expect_same_table(kept.stage_latency(), reference, "merged, spans kept");

  // Merging into an empty trace takes the rows over whole.
  util::Trace whole;
  whole.merge(std::move(kept));
  expect_same_table(whole.stage_latency(), reference, "moved into empty");

  util::Trace table(/*keep_spans=*/false);
  util::Trace table_second(/*keep_spans=*/false);
  emit_two_spellings(table, table_second);
  table.merge(std::move(table_second));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.spans().capacity(), 0u);
  EXPECT_FALSE(table.empty());
  expect_same_table(table.stage_latency(), reference, "merged, no spans");
}

TEST(TraceTableTest, ShardsTracedWithoutSpansKeepTheSameTable) {
  const ShardTask task{0, shard_seed(5, 0)};
  const std::vector<std::pair<std::string, std::function<ShardResult(bool)>>>
      shards = {
          {"storm",
           [&task](bool keep_spans) {
             StormWorkloadOptions workload =
                 storm_workload(storm_defenses(), "");
             workload.world.keep_spans = keep_spans;
             return run_storm_shard(task, workload);
           }},
          {"chaos dup_storm", [&task](bool keep_spans) {
             ChaosWorkloadOptions workload =
                 chaos_workload(sim::ChaosScenario::preset("dup_storm"));
             workload.world.keep_spans = keep_spans;
             return run_chaos_shard(task, workload);
           }}};
  for (const auto& [name, run] : shards) {
    const ShardResult with_spans = run(true);
    const ShardResult without = run(false);
    ASSERT_GT(with_spans.trace.size(), 0u) << name;
    EXPECT_EQ(without.trace.spans().capacity(), 0u) << name;
    EXPECT_EQ(without.counters.all(), with_spans.counters.all()) << name;
    const std::map<std::string, Summary> reference =
        table_from_spans(with_spans.trace);
    expect_same_table(with_spans.trace.stage_latency(), reference,
                      name + ", spans kept");
    expect_same_table(without.trace.stage_latency(), reference,
                      name + ", table only");
  }
}

// --- Checkpoint image goldens -----------------------------------------------
// One fleet image per resumable kind, cut after epoch 1 of 3 with the
// resume suite's shapes at seed 11. The golden pins the image's byte
// count and 64-bit FNV-1a hash, so any change to the checkpoint format
// shows here even when resume equivalence still holds.

struct ImageCase {
  std::string name;
  ResumableOptions options;
};

std::vector<ImageCase> image_cases() {
  ResumableOptions source_im =
      testing::resume_options(ResumeKind::kPortal, 11);
  std::get<PortalWorkloadOptions>(source_im.workload).traffic =
      Traffic::kSourceIm;
  return {{"portal_email", testing::resume_options(ResumeKind::kPortal, 11)},
          {"portal_source_im", source_im},
          {"chaos", testing::resume_options(ResumeKind::kChaos, 11)},
          {"storm", testing::resume_options(ResumeKind::kStorm, 11)}};
}

class GoldenCheckpointTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenCheckpointTest, ImageMatchesGoldenSizeAndHash) {
  const ImageCase image_case = image_cases()[GetParam()];
  ResumeControl cut;
  cut.checkpoint_after_epoch = 1;
  cut.stop_at_checkpoint = true;
  const std::string image =
      run_resumable_fleet(image_case.options, cut).checkpoint;
  ASSERT_FALSE(image.empty());
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(util::fnv1a(image)));
  expect_golden(
      std::string(kCheckpointTestdata) + "/" + image_case.name + ".txt",
      "bytes " + std::to_string(image.size()) + "\nfnv1a64 " + hash + "\n");
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, GoldenCheckpointTest,
    ::testing::Range(std::size_t{0}, image_cases().size()),
    [](const auto& info) { return image_cases()[info.param].name; });

TEST(ZeroRateTest, PortalAndChaosSendNothing) {
  // A zero arrival rate is an empty plan, not an unbounded one.
  PortalWorkloadOptions portal = portal_email_workload();
  portal.alerts_per_user_day = 0.0;
  ChaosWorkloadOptions chaos =
      chaos_workload(sim::ChaosScenario::preset("baseline"));
  chaos.alerts_per_user_day = 0.0;
  const ShardTask task{0, shard_seed(5, 0)};
  const ShardResult portal_result = run_portal_shard(task, portal);
  const ShardResult chaos_result = run_chaos_shard(task, chaos);
  EXPECT_EQ(portal_result.counters.get("alerts.sent"), 0);
  EXPECT_EQ(chaos_result.counters.get("alerts.sent"), 0);
  EXPECT_EQ(chaos_result.counters.get("invariant.violations.total"), 0);
}

}  // namespace
}  // namespace simba::fleet

// Custom main: strip our --regen flag before handing argv to gtest.
int main(int argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--regen") {
      simba::fleet::g_regen = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
