// Fixture tests for simba-lint: each rule family gets a tiny tree
// under testdata/ and the test asserts the exact diagnostics (file,
// line, rule, formatted text) and the CLI exit codes.
#include "lint.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sarif.h"

namespace simba::lint {
namespace {

const char* const kTestdata = SIMBA_LINT_TESTDATA;

LintResult lint_fixture(const std::string& tree) {
  return lint_tree(std::string(kTestdata) + "/" + tree);
}

int cli(std::vector<const char*> args, std::string& out) {
  args.insert(args.begin(), "simba_lint");
  return run_cli(static_cast<int>(args.size()), args.data(), out);
}

TEST(SimbaLint, CleanTreePasses) {
  const LintResult result = lint_fixture("clean");
  EXPECT_EQ(result.files_scanned, 2);
  ASSERT_TRUE(result.diagnostics.empty())
      << format(result.diagnostics.front());

  std::string out;
  EXPECT_EQ(cli({"--root", (std::string(kTestdata) + "/clean").c_str()}, out),
            0);
  EXPECT_NE(out.find("2 files scanned, 0 violation(s)"), std::string::npos)
      << out;
}

TEST(SimbaLint, LayeringViolations) {
  const LintResult result = lint_fixture("layering");
  ASSERT_EQ(result.diagnostics.size(), 2u);
  // Diagnostics are sorted by path: core file first, then xml.
  const Diagnostic& up = result.diagnostics[0];
  EXPECT_EQ(up.file, "src/core/bad_core.cc");
  EXPECT_EQ(up.line, 3);
  EXPECT_EQ(up.rule, "layer");
  EXPECT_EQ(format(up),
            "src/core/bad_core.cc:3: error: [layer] layer 'core' (rank 5) "
            "may not include 'fleet/' (rank 7): includes must point "
            "strictly down the layering DAG");

  const Diagnostic& sideways = result.diagnostics[1];
  EXPECT_EQ(sideways.file, "src/xml/bad_sibling.h");
  EXPECT_EQ(sideways.line, 5);
  EXPECT_EQ(sideways.rule, "layer");
  EXPECT_NE(sideways.message.find("'xml' (rank 1) may not include 'sim/'"),
            std::string::npos)
      << sideways.message;

  std::string out;
  EXPECT_EQ(
      cli({"--root", (std::string(kTestdata) + "/layering").c_str()}, out), 1);
}

TEST(SimbaLint, UnknownModuleInclude) {
  const std::vector<Diagnostic> diags =
      lint_file("src/core/x.cc", "#include \"quux/q.h\"\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_EQ(diags[0].rule, "layer");
  EXPECT_NE(diags[0].message.find("unknown module 'quux/'"),
            std::string::npos);
}

TEST(SimbaLint, DeterminismBansAndAllowlist) {
  const LintResult result = lint_fixture("determinism");
  // bad_clock.cc: steady_clock (7), rand (10), getenv (11),
  // random_device (12). wall_clock.cc: allowlisted, zero findings.
  ASSERT_EQ(result.diagnostics.size(), 4u);
  for (const Diagnostic& d : result.diagnostics) {
    EXPECT_EQ(d.file, "src/sim/bad_clock.cc");
    EXPECT_EQ(d.rule, "determinism");
  }
  EXPECT_EQ(result.diagnostics[0].line, 7);
  EXPECT_NE(result.diagnostics[0].message.find("'steady_clock'"),
            std::string::npos);
  EXPECT_EQ(result.diagnostics[1].line, 10);
  EXPECT_NE(result.diagnostics[1].message.find("'rand('"), std::string::npos);
  EXPECT_EQ(result.diagnostics[2].line, 11);
  EXPECT_NE(result.diagnostics[2].message.find("'getenv('"),
            std::string::npos);
  EXPECT_EQ(result.diagnostics[3].line, 12);
  EXPECT_NE(result.diagnostics[3].message.find("'random_device'"),
            std::string::npos);

  std::string out;
  EXPECT_EQ(
      cli({"--root", (std::string(kTestdata) + "/determinism").c_str()}, out),
      1);
  EXPECT_NE(out.find("4 violation(s)"), std::string::npos) << out;
}

TEST(SimbaLint, UnorderedWaivers) {
  const LintResult result = lint_fixture("unordered");
  // Only the unwaived declaration on line 7 is flagged: the include
  // lines are exempt, the same-line waiver and the previous-line
  // waiver are honored.
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].file, "src/core/maps.cc");
  EXPECT_EQ(result.diagnostics[0].line, 7);
  EXPECT_EQ(result.diagnostics[0].rule, "determinism");
  EXPECT_NE(result.diagnostics[0].message.find("simba-lint: ordered"),
            std::string::npos);
}

TEST(SimbaLint, RawSyncOutsideUtil) {
  const LintResult result = lint_fixture("sync");
  // bad_mutex.cc: member (7) plus both tokens on the lock line (11);
  // util/ok_mutex.cc is exempt.
  ASSERT_EQ(result.diagnostics.size(), 3u);
  for (const Diagnostic& d : result.diagnostics) {
    EXPECT_EQ(d.file, "src/net/bad_mutex.cc");
    EXPECT_EQ(d.rule, "sync");
    EXPECT_NE(d.message.find("util::Mutex"), std::string::npos);
  }
  EXPECT_EQ(result.diagnostics[0].line, 7);
  EXPECT_NE(result.diagnostics[0].message.find("'std::mutex'"),
            std::string::npos);
  EXPECT_EQ(result.diagnostics[1].line, 11);
  EXPECT_EQ(result.diagnostics[2].line, 11);
}

TEST(SimbaLint, BoundedQueueWaivers) {
  const LintResult result = lint_fixture("bounded");
  EXPECT_EQ(result.files_scanned, 3);
  // bad_queue.cc: unwaived deque member (8) and queue member (9). The
  // include lines, both waived members in net/ok_queue.cc (same-line
  // and previous-line waivers), and the fleet-module queue stay clean.
  ASSERT_EQ(result.diagnostics.size(), 2u);
  const Diagnostic& unbounded_deque = result.diagnostics[0];
  EXPECT_EQ(unbounded_deque.file, "src/core/bad_queue.cc");
  EXPECT_EQ(unbounded_deque.line, 8);
  EXPECT_EQ(unbounded_deque.rule, "bounded");
  EXPECT_EQ(format(unbounded_deque),
            "src/core/bad_queue.cc:8: error: [bounded] "
            "std::deque/std::queue on the alert path needs a "
            "'// simba-lint: bounded(<bound, shed path>)' waiver (same or "
            "previous line) naming the bound that keeps it from growing "
            "without limit under storm load");
  EXPECT_EQ(result.diagnostics[1].file, "src/core/bad_queue.cc");
  EXPECT_EQ(result.diagnostics[1].line, 9);
  EXPECT_EQ(result.diagnostics[1].rule, "bounded");

  std::string out;
  EXPECT_EQ(
      cli({"--root", (std::string(kTestdata) + "/bounded").c_str()}, out), 1);
  EXPECT_NE(out.find("2 violation(s)"), std::string::npos) << out;
}

TEST(SimbaLint, FlatMapHotDirectoryWaivers) {
  const LintResult result = lint_fixture("flatmap");
  EXPECT_EQ(result.files_scanned, 3);
  // bad_map.cc: unwaived string-keyed member (8) and pair-of-strings
  // key (9). The include lines, the int-keyed map, both waived members
  // in net/ok_map.cc (same-line and previous-line waivers), and the
  // map in the cold gui/ module stay clean.
  ASSERT_EQ(result.diagnostics.size(), 2u);
  const Diagnostic& string_key = result.diagnostics[0];
  EXPECT_EQ(string_key.file, "src/core/bad_map.cc");
  EXPECT_EQ(string_key.line, 8);
  EXPECT_EQ(string_key.rule, "flatmap");
  EXPECT_EQ(format(string_key),
            "src/core/bad_map.cc:8: error: [flatmap] string-keyed std::map "
            "in a hot directory; use util::FlatMap (util/flat_map.h, "
            "transparent string_view hashing) with sorted_items() where "
            "order matters, or add a '// simba-lint: ordered' waiver (same "
            "or previous line) asserting the sorted iteration itself is "
            "load-bearing");
  EXPECT_EQ(result.diagnostics[1].file, "src/core/bad_map.cc");
  EXPECT_EQ(result.diagnostics[1].line, 9);
  EXPECT_EQ(result.diagnostics[1].rule, "flatmap");

  std::string out;
  EXPECT_EQ(
      cli({"--root", (std::string(kTestdata) + "/flatmap").c_str()}, out), 1);
  EXPECT_NE(out.find("2 violation(s)"), std::string::npos) << out;
}

TEST(SimbaLint, TraceSpansMustUseVirtualTime) {
  const LintResult result = lint_fixture("trace");
  EXPECT_EQ(result.files_scanned, 2);
  // bad_trace.cc: WallTimer on the emit line (16), wall_seconds on the
  // Span line (17). The virtual-time emissions in both files and the
  // span-free wall_seconds declaration (9) stay clean.
  ASSERT_EQ(result.diagnostics.size(), 2u);
  const Diagnostic& timer = result.diagnostics[0];
  EXPECT_EQ(timer.file, "src/fleet/bad_trace.cc");
  EXPECT_EQ(timer.line, 16);
  EXPECT_EQ(timer.rule, "trace");
  EXPECT_EQ(format(timer),
            "src/fleet/bad_trace.cc:16: error: [trace] trace span stamped "
            "from wall-clock source 'WallTimer'; spans carry virtual time "
            "only (sim::Simulator::now) so merged traces stay bit-identical "
            "across runs and thread counts");
  const Diagnostic& seconds = result.diagnostics[1];
  EXPECT_EQ(seconds.line, 17);
  EXPECT_EQ(seconds.rule, "trace");
  EXPECT_NE(seconds.message.find("'wall_seconds'"), std::string::npos)
      << seconds.message;

  std::string out;
  EXPECT_EQ(cli({"--root", (std::string(kTestdata) + "/trace").c_str()}, out),
            1);
  EXPECT_NE(out.find("2 violation(s)"), std::string::npos) << out;
}

TEST(SimbaLint, EagerLogMessagesAreFlagged) {
  const LintResult result = lint_fixture("alloc");
  EXPECT_EQ(result.files_scanned, 2);
  // bad_log.cc: '+' (12), strformat (13), to_string (14), log_info's
  // '+' (22). The literal messages, log_warn, the declarations, and
  // everything in ok_log.cc (lazy macros, no-build call, comment,
  // string literal) stay clean.
  ASSERT_EQ(result.diagnostics.size(), 4u);
  for (const Diagnostic& d : result.diagnostics) {
    EXPECT_EQ(d.file, "src/core/bad_log.cc");
    EXPECT_EQ(d.rule, "alloc");
  }
  EXPECT_EQ(result.diagnostics[0].line, 12);
  EXPECT_EQ(format(result.diagnostics[0]),
            "src/core/bad_log.cc:12: error: [alloc] message for 'log_debug(' "
            "is built eagerly (+/strformat/to_string in the argument list) "
            "and allocates even when the level is disabled; use "
            "SIMBA_LOG_DEBUG (util/log.h) so the message is only built when "
            "it will be written");
  EXPECT_EQ(result.diagnostics[1].line, 13);
  EXPECT_NE(result.diagnostics[1].message.find("'log_trace('"),
            std::string::npos);
  EXPECT_NE(result.diagnostics[1].message.find("SIMBA_LOG_TRACE"),
            std::string::npos);
  EXPECT_EQ(result.diagnostics[2].line, 14);
  EXPECT_EQ(format(result.diagnostics[3]),
            "src/core/bad_log.cc:22: error: [alloc] message for 'log_info(' "
            "is built eagerly (+/strformat/to_string in the argument list) "
            "and allocates even when the level is disabled; use "
            "SIMBA_LOG_INFO (util/log.h) so the message is only built when "
            "it will be written");

  std::string out;
  EXPECT_EQ(cli({"--root", (std::string(kTestdata) + "/alloc").c_str()}, out),
            1);
  EXPECT_NE(out.find("4 violation(s)"), std::string::npos) << out;
}

TEST(SimbaLint, ScheduledEventsMustBeLabeled) {
  const LintResult result = lint_fixture("label");
  EXPECT_EQ(result.files_scanned, 2);
  // bad_label.cc: sim.at (7), the multi-line sim.after (8), sim_.every
  // (15) and sim().after (17) pass two arguments; the sim_.after at 18
  // passes a concatenated label; the label waiver at 20 covers a call
  // whose label is a literal. The literal labels in both files, the
  // waived runtime label and the map at() in ok_label.cc stay clean.
  ASSERT_EQ(result.diagnostics.size(), 6u);
  for (const Diagnostic& d : result.diagnostics) {
    EXPECT_EQ(d.file, "src/fleet/bad_label.cc");
  }
  EXPECT_EQ(format(result.diagnostics[0]),
            "src/fleet/bad_label.cc:7: error: [label] 'sim.at(' schedules an "
            "unlabeled event; pass a string-literal label as the third "
            "argument so per-label event counts can attribute it");
  EXPECT_EQ(result.diagnostics[1].line, 8);
  EXPECT_NE(result.diagnostics[1].message.find("'sim.after('"),
            std::string::npos);
  EXPECT_EQ(result.diagnostics[2].line, 15);
  EXPECT_NE(result.diagnostics[2].message.find("'sim_.every('"),
            std::string::npos);
  EXPECT_EQ(result.diagnostics[3].line, 17);
  EXPECT_NE(result.diagnostics[3].message.find("'sim().after(' schedules"),
            std::string::npos);
  EXPECT_EQ(format(result.diagnostics[4]),
            "src/fleet/bad_label.cc:18: error: [label] 'sim_.after(' passes "
            "a label that is not a string literal; pass one literal that "
            "names the event kind, so per-label event counts stay a fixed "
            "set of rows, or waive it with '// simba-lint: "
            "label(<reason>)'");
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result.diagnostics[i].rule, "label");
  }
  EXPECT_EQ(format(result.diagnostics[5]),
            "src/fleet/bad_label.cc:20: error: [waiver] waiver '// "
            "simba-lint: label' does not suppress any diagnostic on this or "
            "the next line; remove it — waivers must not outlive their "
            "reason");

  std::string out;
  EXPECT_EQ(cli({"--root", (std::string(kTestdata) + "/label").c_str()}, out),
            1);
  EXPECT_NE(out.find("6 violation(s)"), std::string::npos) << out;
}

TEST(SimbaLint, CommentsAndStringsDoNotTrip) {
  const std::vector<Diagnostic> diags = lint_file(
      "src/core/x.cc",
      "// rand() and std::mutex in a comment\n"
      "/* steady_clock in a block\n"
      "   spanning lines: getenv( */\n"
      "const char* s = \"rand( std::mutex steady_clock\";\n");
  EXPECT_TRUE(diags.empty()) << format(diags.front());
}

TEST(SimbaLint, MemberCallsAreNotBannedCalls) {
  const std::vector<Diagnostic> diags = lint_file(
      "src/core/x.cc",
      "void f(Sim& s) { s.time(); s.clock(); sim->time(); my_time(1); }\n");
  EXPECT_TRUE(diags.empty()) << format(diags.front());
}

TEST(SimbaLint, CounterRegistryChecksEverySite) {
  const LintResult result = lint_fixture("counters");
  EXPECT_EQ(result.files_scanned, 3);
  // good.cc (exact, glued, ternary, prefix-into-pattern sites,
  // CounterName arms, add() prefixes into a pattern, and add() calls
  // that name no counter) and the get()-only probe of the dynamic
  // entry stay clean; bad.cc's six sites and the never-bumped registry
  // entry are errors.
  ASSERT_EQ(result.diagnostics.size(), 7u);
  for (const Diagnostic& d : result.diagnostics) {
    EXPECT_EQ(d.rule, "counters");
    EXPECT_EQ(d.severity, Severity::kError);
  }
  EXPECT_EQ(format(result.diagnostics[0]),
            "src/core/bad.cc:3: error: [counters] counter \"alert_sent\" is "
            "not registered in src/util/counter_registry.def — did you mean "
            "\"alerts_sent\"?");
  EXPECT_EQ(format(result.diagnostics[1]),
            "src/core/bad.cc:4: error: [counters] counter \"totally_unknown\" "
            "is not registered in src/util/counter_registry.def — add it "
            "(name, subsystem, role, doc) or fix the name");
  EXPECT_EQ(format(result.diagnostics[2]),
            "src/core/bad.cc:5: error: [counters] counter-name prefix \"zz.\" "
            "matches no registered counter or pattern; register the dynamic "
            "names it produces in src/util/counter_registry.def");
  EXPECT_EQ(format(result.diagnostics[3]),
            "src/core/bad.cc:9: error: [counters] counter \"alerts_sentt\" "
            "is not registered in src/util/counter_registry.def — did you "
            "mean \"alerts_sent\"?");
  EXPECT_EQ(format(result.diagnostics[4]),
            "src/core/bad.cc:10: error: [counters] counter-name prefix "
            "\"yy.\" matches no registered counter or pattern; register the "
            "dynamic names it produces in src/util/counter_registry.def");
  EXPECT_EQ(format(result.diagnostics[5]),
            "src/core/bad.cc:11: error: [counters] counter-name prefix "
            "\"xx.\" matches no registered counter or pattern; register the "
            "dynamic names it produces in src/util/counter_registry.def");
  EXPECT_EQ(format(result.diagnostics[6]),
            "src/util/counter_registry.def:6: error: [counters] registered "
            "counter 'stale_counter' has no bump(\"...\") site anywhere in "
            "the tree; delete the entry or mark it 'dynamic' if it is bumped "
            "through a computed key");

  std::string out;
  EXPECT_EQ(
      cli({"--root", (std::string(kTestdata) + "/counters").c_str()}, out), 1);
  EXPECT_NE(out.find("7 violation(s)"), std::string::npos) << out;
}

TEST(SimbaLint, RegistryParseErrors) {
  const LintResult result = lint_fixture("registry_errors");
  // One diagnostic per malformed line plus the duplicate-name check;
  // the well-formed entry is bumped by use.cc, so nothing else fires.
  ASSERT_EQ(result.diagnostics.size(), 9u);
  std::string all;
  for (const Diagnostic& d : result.diagnostics) {
    EXPECT_EQ(d.rule, "counters");
    EXPECT_EQ(d.file, "src/util/counter_registry.def");
    all += format(d);
    all += '\n';
  }
  EXPECT_NE(all.find(":2: error: [counters] malformed registry line: "
                     "expected '<name> <subsystem> <source|sink|neutral> "
                     "[dynamic] -- doc'"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find(":4: error: [counters] malformed registry line for "
                     "'short_line'"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find(":5: error: [counters] unknown subsystem 'nowhere' for "
                     "counter 'bad_subsystem'"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find(":6: error: [counters] unknown conservation role "
                     "'upward' for counter 'bad_role' (want source, sink, or "
                     "neutral)"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find(":7: error: [counters] unknown flag 'sticky' for "
                     "counter 'bad_flag' (only 'dynamic' is recognised)"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find(":8: error: [counters] trailing field 'surplus' for "
                     "counter 'extra_field' before the '--' doc separator"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find(":9: error: [counters] counter 'no_doc' is missing its "
                     "one-line doc"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find(":10: error: [counters] prefix pattern '*' would match "
                     "every counter"),
            std::string::npos)
      << all;
  // The duplicate pair sorts by name only, so which of lines 3/11 is
  // "first" is unspecified — assert the message, not the line.
  EXPECT_NE(all.find("duplicate registry entry 'ok_counter' (first declared "
                     "on line "),
            std::string::npos)
      << all;
}

TEST(SimbaLint, IncludeCycleAndUnusedInclude) {
  const LintResult result = lint_fixture("include");
  EXPECT_EQ(result.files_scanned, 4);
  // user.cc pulls in a.h without mentioning anything it exports
  // (warning); a.h and b.h include each other (error, reported once,
  // spelled from the lexicographically-first file).
  ASSERT_EQ(result.diagnostics.size(), 2u);
  EXPECT_EQ(format(result.diagnostics[0]),
            "src/core/user.cc:1: warning: [include] included header "
            "\"util/a.h\" exports no name this file mentions; drop the "
            "include or include what you use directly");
  EXPECT_EQ(format(result.diagnostics[1]),
            "src/util/a.h:2: error: [layer] include cycle: src/util/a.h -> "
            "src/util/b.h -> src/util/a.h");

  // Warnings alone would exit 0; the cycle error makes it 1.
  std::string out;
  EXPECT_EQ(
      cli({"--root", (std::string(kTestdata) + "/include").c_str()}, out), 1);
  EXPECT_NE(out.find("4 files scanned, 1 violation(s), 1 warning(s)"),
            std::string::npos)
      << out;
}

TEST(SimbaLint, WaiverAuditEdgeCases) {
  const LintResult result = lint_fixture("waiver");
  EXPECT_EQ(result.files_scanned, 1);
  // The previous-line waiver with trailing prose and the two-markers-
  // on-one-line comment all suppress something; the stale waiver over
  // a std::map and the unknown kind are the only findings.
  ASSERT_EQ(result.diagnostics.size(), 2u);
  EXPECT_EQ(format(result.diagnostics[0]),
            "src/core/waivers.cc:8: error: [waiver] waiver '// simba-lint: "
            "ordered' does not suppress any diagnostic on this or the next "
            "line; remove it — waivers must not outlive their reason");
  EXPECT_EQ(format(result.diagnostics[1]),
            "src/core/waivers.cc:10: error: [waiver] unknown waiver kind "
            "'frobnicate' (recognised: 'ordered', 'bounded(...)', "
            "'label(...)')");
}

TEST(SimbaLint, SarifRoundTripValidates) {
  const LintResult result = lint_fixture("counters");
  ASSERT_FALSE(result.diagnostics.empty());
  const std::string sarif = to_sarif(result.diagnostics);
  EXPECT_EQ(validate_sarif(sarif), "");
  // Spot-check the payload carries the findings.
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"counters\""), std::string::npos);
  EXPECT_NE(sarif.find("src/core/bad.cc"), std::string::npos);

  // An empty run is still a valid SARIF log.
  EXPECT_EQ(validate_sarif(to_sarif({})), "");

  // Corrupted logs are rejected with a reason.
  EXPECT_NE(validate_sarif("{}"), "");
  EXPECT_NE(validate_sarif("not json"), "");
  std::string wrong_version = sarif;
  const std::size_t at = wrong_version.find("\"2.1.0\"");
  ASSERT_NE(at, std::string::npos);
  wrong_version.replace(at, 7, "\"9.9.9\"");
  EXPECT_NE(validate_sarif(wrong_version), "");
}

TEST(SimbaLint, CliWritesSarif) {
  const std::string sarif_path =
      testing::TempDir() + "/simba_lint_cli_test.sarif";
  std::string out;
  EXPECT_EQ(cli({"--root", (std::string(kTestdata) + "/waiver").c_str(),
                 "--sarif", sarif_path.c_str()},
                out),
            1);
  std::ifstream in(sarif_path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(validate_sarif(buf.str()), "");
  EXPECT_NE(buf.str().find("\"ruleId\": \"waiver\""), std::string::npos);
  std::remove(sarif_path.c_str());
}

TEST(SimbaLint, CliErrors) {
  std::string out;
  EXPECT_EQ(cli({"--bogus"}, out), 2);
  out.clear();
  EXPECT_EQ(cli({"--root", "/nonexistent-simba-root"}, out), 2);
  EXPECT_NE(out.find("wrong --root?"), std::string::npos) << out;
}

}  // namespace
}  // namespace simba::lint
