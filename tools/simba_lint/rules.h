// Internal plumbing shared by the rule passes (not part of the public
// lint.h surface). One FileAnalysis is built per file: the lex, the
// per-file diagnostics, and the raw material the repo-wide passes
// consume — waivers for the [waiver] audit, counter-literal sites for
// the [counters] registry check, and include directives for the
// include graph.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lexer.h"
#include "lint.h"

namespace simba::lint {

/// Top-level tree a file lives in; selects rule applicability (see
/// the table in lint.h).
enum class Tree { kSrc, kTests, kBench, kExamples, kTools };

/// One waiver comment. `kind` is the word after "simba-lint: "
/// ("ordered", "bounded", "label"). A waiver left unused at the end of
/// the file-local rules is a [waiver] error.
struct Waiver {
  int line = 0;
  std::string kind;
  bool used = false;
};

/// One counter-name literal at a bump("...")/get("...") call site.
struct CounterSite {
  std::string name;
  int line = 0;
  bool is_bump = false;    // bump vs (member) get
  bool is_prefix = false;  // literal is followed by '+': a key prefix
};

/// One quoted #include directive.
struct IncludeDirective {
  std::string target;  // the quoted path text, e.g. "util/stats.h"
  int line = 0;
};

struct FileAnalysis {
  std::string rel_path;
  Tree tree = Tree::kSrc;
  std::string module;  // "core", "tests", ... ("" when undeterminable)
  int rank = -1;       // layering rank, -1 when unranked
  LexedFile lex;
  std::vector<Waiver> waivers;
  std::vector<CounterSite> counter_sites;
  std::vector<IncludeDirective> includes;
  std::vector<Diagnostic> diags;
};

/// Lexes and runs every per-file pass: the line rules (determinism,
/// sync, bounded, trace, alloc, label and — when `with_layer` — the direct
/// [layer] include checks), waiver collection + audit, counter-site
/// and include-directive extraction. `with_layer` is false under
/// lint_tree, where the include-graph pass owns [layer].
FileAnalysis analyze_file(std::string rel_path, const std::string& content,
                          bool with_layer);

/// rules_line.cc — the per-line rule families. Fills fa.waivers and
/// appends to fa.diags (including the [waiver] audit of unused
/// waivers, which is file-local by construction).
void run_line_rules(FileAnalysis& fa, bool with_layer);

/// rules_counters.cc — extracts bump/get counter-name literal sites
/// from the token stream into fa.counter_sites.
void collect_counter_sites(FileAnalysis& fa);

/// rules_counters.cc — the repo-wide registry check: every site must
/// resolve, every non-dynamic entry must have a bump site.
/// `def_rel_path` locates the registry file for rot diagnostics.
void check_counters(const class CounterRegistry& registry,
                    const std::string& def_rel_path,
                    const std::vector<FileAnalysis>& files,
                    std::vector<Diagnostic>& diags);

/// Shared token helpers (defined in rules_line.cc).
bool contains_token(const std::string& text, std::string_view token);
bool contains_call(const std::string& text, std::string_view name);

/// Layering-DAG rank of a module directory name, -1 when unranked
/// (defined in lint.cc, next to the DAG table).
int layer_rank(std::string_view module);

}  // namespace simba::lint
