// simba-lint — the repo's custom static-analysis pass: a multi-pass
// repo analyzer built on one shared tokenizer (lexer.h). Files are
// lexed once; line-oriented rules read the per-line stripped views,
// and the repo-wide passes (counter registry, include graph, waiver
// audit) read the cross-line token stream, all motivated by the
// fleet/chaos determinism invariant (merged reports must be
// bit-identical across seeds and thread counts), the layered
// architecture, and the extended conservation identity DESIGN.md
// documents:
//
//   [layer]       src/ directories form a DAG (util at the bottom,
//                 fleet at the top, bench/tests/examples above
//                 everything); an #include that points up or sideways
//                 across the DAG is an error. The repo-wide include
//                 graph additionally verifies the DAG transitively
//                 and reports file-level include cycles.
//   [include]     IWYU-lite: a quoted repo include whose header
//                 exports no name the including file ever mentions is
//                 a warning (the include is dead weight).
//   [determinism] real clocks, ambient randomness, and environment
//                 reads are banned in src/ outside the allowlisted
//                 util/wall_clock.cc shim; std::unordered_{map,set}
//                 use must carry a "// simba-lint: ordered" waiver
//                 asserting its iteration order is never observed.
//   [sync]        raw std::mutex/lock_guard/condition_variable are
//                 banned outside util/ — use util::Mutex/MutexLock
//                 (util/mutex.h), which carry Clang thread-safety
//                 annotations.
//   [bounded]     queue containers on the alert hot path (core/,
//                 net/) must carry a "// simba-lint: bounded(...)"
//                 waiver naming the bound and its shed path.
//   [flatmap]     string-keyed std::map in the hot directories
//                 (core/, net/, util/, fleet/) is an error — use
//                 util::FlatMap (util/flat_map.h) with sorted_items()
//                 where order matters, or carry a "// simba-lint:
//                 ordered" waiver asserting the sorted iteration
//                 itself is load-bearing (wire framing, config dumps,
//                 report order).
//   [trace]       lifecycle-trace spans carry virtual time only: a
//                 src/ line that emits or builds a util::Trace span
//                 (an emit(...) call or the Span type) may not
//                 mention a wall-clock source (util::WallTimer /
//                 wall_seconds) — wall-stamped spans would break the
//                 bit-identical merged-trace guarantee.
//   [alloc]       trace/debug/info log messages must be built
//                 lazily: a src/ log_trace/log_debug/log_info call
//                 whose argument text concatenates ('+'), formats
//                 (strformat), or stringifies (to_string) allocates
//                 the message even when the level is disabled (the
//                 default threshold is warn) — use SIMBA_LOG_TRACE /
//                 SIMBA_LOG_DEBUG / SIMBA_LOG_INFO (util/log.h), which
//                 evaluate the message expression only when it will be
//                 written.
//   [label]       every event scheduled on the simulator is labeled
//                 with a literal that names its kind: a src/
//                 sim.at/after/every call (also through sim_. or the
//                 sim() accessor) with fewer than three arguments is
//                 an error, and so is a third argument that is not one
//                 string literal, unless a "// simba-lint:
//                 label(<reason>)" waiver covers the call. Per-label
//                 event counts then attribute every event to one of a
//                 fixed set of rows.
//   [counters]    every Counters::bump("...") / ::get("...") literal,
//                 each CounterName("...") arm of a ternary bump, and
//                 each literal prefix of an add("prefix." + ...) or
//                 add(std::string("prefix.") + ...) site
//                 must resolve to an entry in the checked-in registry
//                 src/util/counter_registry.def (name, owning
//                 subsystem, conservation-identity role, one-line
//                 doc). Unregistered names are errors with an
//                 edit-distance hint; a registered name with no bump
//                 site anywhere (and no 'dynamic' mark) is an error
//                 too, so the registry cannot rot.
//   [waiver]      a waiver comment that no longer suppresses any
//                 diagnostic is itself an error — waivers cannot
//                 outlive their reason.
//
// Per-tree rule applicability. The tree walk covers src/, tests/,
// bench/, examples/, and tools/ (skipping any testdata/ fixture
// directory); rules apply per top-level tree:
//
//   rule          src/                tests/ bench/ examples/  tools/
//   [layer]       yes                 yes (rank 8: anything)   —
//   [include]     yes                 —                        yes
//   [determinism] yes (allowlist)     —                        —
//   [sync]        yes (outside util/) —                        —
//   [bounded]     core/ + net/        —                        —
//   [flatmap]     core/ net/ util/ fleet/ —                     —
//   [trace]       yes                 —                        —
//   [alloc]       yes                 —                        —
//   [label]       yes                 —                        —
//   [counters]    yes                 yes                      yes
//   [waiver]      yes                 yes                      yes
//
// Tests, benches, and examples exercise nondeterminism and raw
// primitives on purpose (seeded storms, wall-clock bench timing), so
// only the whole-tree passes follow them; tools/ is outside the
// layering DAG but its sources still carry counters and waivers.
// Include cycles are reported in every tree.
//
// The checks are lexical (comment/string-aware, not semantic), so
// they are fast, dependency-free, and deterministic; anything that
// needs real semantic analysis is clang-tidy's job (.clang-tidy).
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace simba::lint {

enum class Severity { kError, kWarning };

struct Diagnostic {
  std::string file;  // path relative to the lint root, '/' separators
  int line = 0;      // 1-based
  std::string rule;  // "layer", "include", "determinism", "sync",
                     // "bounded", "flatmap", "trace", "alloc", "label",
                     // "counters", "waiver"
  std::string message;
  Severity severity = Severity::kError;
};

/// "file:line: error: [rule] message" — the format editors parse.
std::string format(const Diagnostic& d);

/// Lints one file's contents with the per-file rules (everything
/// except the repo-wide counter-registry, include-graph, and
/// unused-include passes, which need the whole tree). `rel_path` is
/// the root-relative path (e.g. "src/core/alert.h"); it selects which
/// rule families apply.
std::vector<Diagnostic> lint_file(const std::string& rel_path,
                                  const std::string& content);

struct LintResult {
  std::vector<Diagnostic> diagnostics;  // sorted by (path, line, rule)
  int files_scanned = 0;
  int error_count = 0;
  int warning_count = 0;
};

/// Walks src/, bench/, tests/, examples/, and tools/ under `root`
/// (the .h, .cc, and .cpp files, skipping testdata/ fixtures), lints
/// each file, then runs the repo-wide passes: the [counters] registry
/// check against src/util/counter_registry.def (skipped when the tree
/// has no registry file), the include-graph DAG/cycle/unused-include
/// analysis, and the [waiver] audit. Everything is built in one pass
/// over the tree — files are read and lexed once, the registry and
/// include graph once per run, never per file. Diagnostics come back
/// stable-sorted by (path, line, rule), so output is byte-identical
/// across platforms and directory-iteration orders.
LintResult lint_tree(const std::filesystem::path& root);

/// CLI driver:
///   simba_lint [--root DIR] [--quiet] [--sarif FILE] [--dump-counters]
/// Prints one formatted diagnostic per line plus a summary to `out`;
/// --sarif additionally writes the diagnostics as SARIF 2.1.0 (the
/// format GitHub code scanning ingests); --dump-counters lists every
/// distinct counter-literal site instead of linting (registry
/// authoring aid). Returns the process exit code (0 clean or
/// warnings only, 1 errors, 2 usage/IO error).
int run_cli(int argc, const char* const* argv, std::string& out);

}  // namespace simba::lint
