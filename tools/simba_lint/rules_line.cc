// The per-line rule families ([layer] direct checks, [determinism],
// [sync], [bounded], [trace], [alloc]) plus waiver collection and the
// file-local [waiver] audit. Rules read the lexed per-line views:
// `code` (comments blanked, strings kept) for include directives,
// `tokens` (comments and strings blanked) for banned-name matching —
// so banned names in comments or string literals never trip. [label]
// counts call arguments, which may span lines, so it reads the token
// stream instead.
#include <array>
#include <utility>
#include <string>
#include <string_view>
#include <vector>

#include "rules.h"

namespace simba::lint {
namespace {

// Files allowed to read real clocks: the one shim everything else
// must route timing through.
constexpr std::array<std::string_view, 1> kDeterminismAllowlist{
    "src/util/wall_clock.cc",
};

// Nondeterministic calls: identifier immediately followed by '(' and
// not reached through member access ('.x(' / '->x(').
constexpr std::array<std::string_view, 8> kBannedCalls{
    "time",   "rand",          "srand",        "getenv",
    "clock",  "gettimeofday",  "clock_gettime", "timespec_get",
};

// Nondeterministic types/clocks, matched as whole identifiers.
constexpr std::array<std::string_view, 4> kBannedTokens{
    "system_clock",
    "steady_clock",
    "high_resolution_clock",
    "random_device",
};

// Raw synchronisation primitives banned outside util/ (util/mutex.h
// wraps them with Clang thread-safety annotations).
constexpr std::array<std::string_view, 12> kBannedSync{
    "std::mutex",
    "std::timed_mutex",
    "std::recursive_mutex",
    "std::recursive_timed_mutex",
    "std::shared_mutex",
    "std::shared_timed_mutex",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
    "std::shared_lock",
    "std::condition_variable",
    "std::condition_variable_any",
};

// Logging calls whose message argument must not be built eagerly:
// below the threshold (warn by default) they discard the string they
// just allocated. Each maps to the lazy macro that replaces it.
constexpr std::array<std::pair<std::string_view, std::string_view>, 3>
    kLazyLogCalls{{
        {"log_trace", "SIMBA_LOG_TRACE"},
        {"log_debug", "SIMBA_LOG_DEBUG"},
        {"log_info", "SIMBA_LOG_INFO"},
    }};

// Argument patterns that mean "this line allocates to build the
// message": formatting and number-to-string conversion ('+' is
// checked directly).
constexpr std::array<std::string_view, 2> kAllocCalls{
    "strformat",
    "to_string",
};

// Wall-clock sources that must never stamp a lifecycle-trace span.
constexpr std::array<std::string_view, 2> kWallClockSources{
    "WallTimer",
    "wall_seconds",
};

// Modules on the alert hot path where an unbounded queue member is an
// overload hazard (DESIGN.md §14).
constexpr std::array<std::string_view, 2> kBoundedModules{"core", "net"};

// Hot directories (DESIGN.md §16): a string-keyed std::map here costs
// a red-black node walk per lookup on the submit→deliver path; the
// flat-map sweep replaced them with util::FlatMap, and new ones need
// an 'ordered' waiver asserting their sorted iteration is load-bearing.
constexpr std::array<std::string_view, 4> kFlatMapModules{"core", "net",
                                                          "util", "fleet"};

// Simulator scheduling calls; the event label is the third argument.
constexpr std::array<std::string_view, 3> kScheduleCalls{"at", "after",
                                                         "every"};

constexpr std::string_view kWaiverMarker = "simba-lint:";

bool in_allowlist(const std::string& rel_path) {
  for (const std::string_view allowed : kDeterminismAllowlist) {
    if (rel_path == allowed) return true;
  }
  return false;
}

// Extracts the quoted path from an `#include "..."` directive, or ""
// when the line is not a quoted include.
std::string include_path(const std::string& line) {
  std::size_t i = line.find_first_not_of(" \t");
  if (i == std::string::npos || line[i] != '#') return "";
  i = line.find_first_not_of(" \t", i + 1);
  if (i == std::string::npos || line.compare(i, 7, "include") != 0) return "";
  i = line.find('"', i + 7);
  if (i == std::string::npos) return "";
  const std::size_t end = line.find('"', i + 1);
  if (end == std::string::npos) return "";
  return line.substr(i + 1, end - i - 1);
}

// Position just past the '(' of a free-function call of `name` (see
// contains_call), or npos when the line has no such call.
std::size_t find_call_args(const std::string& text, std::string_view name) {
  std::size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const std::size_t after = pos + name.size();
    const bool word = (pos == 0 || !is_ident_char(text[pos - 1])) &&
                      (after < text.size() && !is_ident_char(text[after]));
    if (word) {
      const std::size_t paren = text.find_first_not_of(" \t", after);
      const bool calls = paren != std::string::npos && text[paren] == '(';
      const bool member =
          (pos >= 1 && text[pos - 1] == '.') ||
          (pos >= 2 && text[pos - 2] == '-' && text[pos - 1] == '>');
      if (calls && !member) return paren + 1;
    }
    ++pos;
  }
  return std::string::npos;
}

// True when `name` appears as a call, member or free: whole identifier
// followed by '('. Trace::emit is normally reached as `trace_->emit(`,
// which contains_call deliberately skips.
bool contains_any_call(const std::string& text, std::string_view name) {
  std::size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const std::size_t after = pos + name.size();
    const bool word = (pos == 0 || !is_ident_char(text[pos - 1])) &&
                      (after < text.size() && !is_ident_char(text[after]));
    if (word) {
      const std::size_t paren = text.find_first_not_of(" \t", after);
      if (paren != std::string::npos && text[paren] == '(') return true;
    }
    ++pos;
  }
  return false;
}

// Collects the waivers declared in one line's comment text. Only a
// comment whose (doxygen-trimmed) text *starts* with "simba-lint:" is
// a waiver comment — prose that merely mentions the syntax is not —
// but one waiver comment may carry several markers ("// simba-lint:
// ordered simba-lint: bounded(...)"), so every marker inside it
// counts.
void collect_waivers(const std::string& comment, int line_no,
                     std::vector<Waiver>& out) {
  std::size_t start = comment.find_first_not_of("/!< \t");
  if (start == std::string::npos) return;
  if (comment.compare(start, kWaiverMarker.size(), kWaiverMarker) != 0) return;
  std::size_t pos = start;
  while ((pos = comment.find(kWaiverMarker, pos)) != std::string::npos) {
    std::size_t word = comment.find_first_not_of(" \t",
                                                 pos + kWaiverMarker.size());
    Waiver waiver;
    waiver.line = line_no;
    while (word < comment.size() && is_ident_char(comment[word])) {
      waiver.kind.push_back(comment[word]);
      ++word;
    }
    out.push_back(std::move(waiver));
    pos += kWaiverMarker.size();
  }
}

// True when the line declares a string-keyed std::map: "std::map"
// followed (whitespace-insensitively) by "<std::string..." or
// "<std::pair<std::string..." — the latter catches composed keys like
// the bus address pairs. string_view keys match too (the "std::string"
// prefix), which is intended: a view-keyed ordered map has the same
// node-walk cost.
bool string_keyed_map(const std::string& tokens) {
  constexpr std::string_view kMap = "std::map";
  constexpr std::string_view kPair = "std::pair";
  constexpr std::string_view kString = "std::string";
  std::size_t pos = 0;
  const auto skip_ws = [&tokens](std::size_t i) {
    while (i < tokens.size() && (tokens[i] == ' ' || tokens[i] == '\t')) ++i;
    return i;
  };
  while ((pos = tokens.find(kMap, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(tokens[pos - 1]);
    std::size_t i = skip_ws(pos + kMap.size());
    if (left_ok && i < tokens.size() && tokens[i] == '<') {
      i = skip_ws(i + 1);
      if (tokens.compare(i, kPair.size(), kPair) == 0) {
        i = skip_ws(i + kPair.size());
        if (i < tokens.size() && tokens[i] == '<') i = skip_ws(i + 1);
      }
      if (tokens.compare(i, kString.size(), kString) == 0) return true;
    }
    ++pos;
  }
  return false;
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

// Token index where each top-level argument of the call whose '(' is
// ts[open] begins, plus one closing entry: argument k spans
// [starts[k], starts[k + 1] - 1). Empty for a call with no arguments.
std::vector<std::size_t> arg_starts(const std::vector<Token>& ts,
                                    std::size_t open) {
  std::vector<std::size_t> starts{open + 1};
  int depth = 0;
  for (std::size_t j = open; j < ts.size(); ++j) {
    const Token& t = ts[j];
    if (is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{")) {
      ++depth;
    } else if (is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}")) {
      if (--depth == 0) {
        if (j == open + 1) return {};
        starts.push_back(j + 1);
        return starts;
      }
    } else if (depth == 1 && is_punct(t, ",")) {
      starts.push_back(j + 1);
    }
  }
  starts.push_back(ts.size() + 1);  // unterminated call: what is there
  return starts;
}

// A waiver of `kind` on the same or the previous line suppresses a
// diagnostic on `line_no` and is marked used.
bool waived(FileAnalysis& fa, int line_no, std::string_view kind) {
  bool found = false;
  for (Waiver& w : fa.waivers) {
    if (w.kind == kind && (w.line == line_no || w.line == line_no - 1)) {
      w.used = true;
      found = true;
    }
  }
  return found;
}

// [label] — every event scheduled on the simulator carries a label
// that names its kind, so per-label event counts attribute it to one
// of a fixed set of rows: a sim.at/after/every call (also through
// sim_ or the sim() accessor) needs a third argument, and that
// argument is one string literal unless a 'label(<reason>)' waiver
// covers the call.
void check_schedule_labels(FileAnalysis& fa) {
  const std::vector<Token>& ts = fa.lex.tokens;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].kind != Token::Kind::kIdent ||
        (ts[i].text != "sim" && ts[i].text != "sim_")) {
      continue;
    }
    // `sim()` is the components' accessor for their simulator.
    std::string receiver = ts[i].text;
    std::size_t dot = i + 1;
    if (dot + 1 < ts.size() && is_punct(ts[dot], "(") &&
        is_punct(ts[dot + 1], ")")) {
      receiver += "()";
      dot += 2;
    }
    if (dot + 2 >= ts.size() || !is_punct(ts[dot], ".") ||
        ts[dot + 1].kind != Token::Kind::kIdent ||
        !is_punct(ts[dot + 2], "(")) {
      continue;
    }
    const Token& call = ts[dot + 1];
    bool schedules = false;
    for (const std::string_view name : kScheduleCalls) {
      schedules = schedules || call.text == name;
    }
    if (!schedules) continue;
    const std::string where = "'" + receiver + "." + call.text + "('";
    const std::vector<std::size_t> starts = arg_starts(ts, dot + 2);
    if (starts.size() < 4) {
      fa.diags.push_back(Diagnostic{
          fa.rel_path, call.line, "label",
          where + " schedules an unlabeled event; pass a string-literal "
                  "label as the third argument so per-label event counts "
                  "can attribute it",
          Severity::kError});
      continue;
    }
    const bool literal = starts[3] - starts[2] == 2 &&
                         ts[starts[2]].kind == Token::Kind::kString;
    if (literal || waived(fa, call.line, "label")) continue;
    fa.diags.push_back(Diagnostic{
        fa.rel_path, call.line, "label",
        where + " passes a label that is not a string literal; pass "
                "one literal that names the event kind, so per-label "
                "event counts stay a fixed set of rows, or waive it with "
                "'// simba-lint: label(<reason>)'",
        Severity::kError});
  }
}

}  // namespace

bool contains_token(const std::string& text, std::string_view token) {
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t after = pos + token.size();
    const bool right_ok = after >= text.size() || !is_ident_char(text[after]);
    if (left_ok && right_ok) return true;
    ++pos;
  }
  return false;
}

bool contains_call(const std::string& text, std::string_view name) {
  std::size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const std::size_t after = pos + name.size();
    const bool word = (pos == 0 || !is_ident_char(text[pos - 1])) &&
                      (after < text.size() && !is_ident_char(text[after]));
    if (word) {
      std::size_t paren = text.find_first_not_of(" \t", after);
      const bool calls = paren != std::string::npos && text[paren] == '(';
      const bool member =
          (pos >= 1 && text[pos - 1] == '.') ||
          (pos >= 2 && text[pos - 2] == '-' && text[pos - 1] == '>');
      if (calls && !member) return true;
    }
    ++pos;
  }
  return false;
}

void run_line_rules(FileAnalysis& fa, bool with_layer) {
  const bool in_src = fa.tree == Tree::kSrc;
  const bool layer_applies = with_layer && fa.tree != Tree::kTools;
  const bool determinism_applies = in_src && !in_allowlist(fa.rel_path);
  const bool sync_applies = in_src && fa.module != "util";
  bool bounded_applies = false;
  for (const std::string_view m : kBoundedModules) {
    bounded_applies = bounded_applies || (in_src && fa.module == m);
  }
  bool flatmap_applies = false;
  for (const std::string_view m : kFlatMapModules) {
    flatmap_applies = flatmap_applies || (in_src && fa.module == m);
  }

  auto emit = [&](int line, const char* rule, std::string message) {
    fa.diags.push_back(Diagnostic{fa.rel_path, line, rule, std::move(message),
                                  Severity::kError});
  };

  if (with_layer && in_src && fa.rank < 0) {
    emit(1, "layer",
         "directory 'src/" + fa.module +
             "' is not registered in the layering DAG (tools/simba_lint)");
  }

  for (std::size_t index = 0; index < fa.lex.lines.size(); ++index) {
    const LexedLine& line = fa.lex.lines[index];
    collect_waivers(line.comment, static_cast<int>(index) + 1, fa.waivers);
  }

  for (std::size_t index = 0; index < fa.lex.lines.size(); ++index) {
    const int line_no = static_cast<int>(index) + 1;
    const std::string& code = fa.lex.lines[index].code;
    const std::string& tokens = fa.lex.lines[index].tokens;

    // [layer] — includes must point down the DAG. The repo-wide
    // include-graph pass owns this under lint_tree (adding transitive
    // verification and cycle detection); the direct per-line check
    // remains for single-file linting.
    const std::string target_path = include_path(code);
    if (layer_applies && !target_path.empty()) {
      const std::size_t slash = target_path.find('/');
      const std::string target =
          slash == std::string::npos ? "" : target_path.substr(0, slash);
      if (!target.empty() && target != fa.module) {
        const int target_rank = layer_rank(target);
        if (target_rank < 0) {
          emit(line_no, "layer",
               "include of unknown module '" + target +
                   "/' — register it in the layering DAG or fix the path");
        } else if (fa.rank >= 0 && target_rank >= fa.rank) {
          emit(line_no, "layer",
               "layer '" + fa.module + "' (rank " + std::to_string(fa.rank) +
                   ") may not include '" + target + "/' (rank " +
                   std::to_string(target_rank) +
                   "): includes must point strictly down the layering DAG");
        }
      }
    }
    if (!target_path.empty()) {
      fa.includes.push_back(IncludeDirective{target_path, line_no});
    }
    const bool is_include_line = !target_path.empty() ||
                                 code.find("#include") != std::string::npos;

    // [determinism] — bans in simulation code (src/ outside allowlist).
    if (determinism_applies) {
      for (const std::string_view name : kBannedCalls) {
        if (contains_call(tokens, name)) {
          emit(line_no, "determinism",
               "banned nondeterministic call '" + std::string(name) +
                   "(' in simulation code; use util/rng.h for randomness "
                   "and util/wall_clock.h for timing-only wall clocks");
        }
      }
      for (const std::string_view token : kBannedTokens) {
        if (contains_token(tokens, token)) {
          emit(line_no, "determinism",
               "banned real-clock/entropy source '" + std::string(token) +
                   "' in simulation code; virtual time comes from the "
                   "Simulator, wall timing from util/wall_clock.h");
        }
      }
      const bool unordered_use = contains_token(tokens, "unordered_map") ||
                                 contains_token(tokens, "unordered_set") ||
                                 contains_token(tokens, "unordered_multimap") ||
                                 contains_token(tokens, "unordered_multiset");
      // Usage, not the <unordered_map> include line itself.
      if (unordered_use && !is_include_line &&
          !waived(fa, line_no, "ordered")) {
        emit(line_no, "determinism",
             "std::unordered_{map,set} use needs a '// simba-lint: "
             "ordered' waiver (same or previous line) asserting its "
             "iteration order is never observed; otherwise use "
             "std::map/std::set so merged reports stay deterministic");
      }
    }

    // [sync] — raw synchronisation outside util/.
    if (sync_applies) {
      for (const std::string_view token : kBannedSync) {
        if (contains_token(tokens, token)) {
          emit(line_no, "sync",
               "raw '" + std::string(token) +
                   "' is banned outside util/; use util::Mutex / "
                   "util::MutexLock (util/mutex.h) so Clang thread-safety "
                   "annotations cover it");
        }
      }
    }

    // [bounded] — queue containers on the alert path must name their
    // bound. A raw std::deque/std::queue in core/ or net/ grows without
    // limit under storm load unless something sheds; the waiver names
    // the bound and the shed path so the claim is reviewable.
    if (bounded_applies) {
      const bool queue_use = contains_token(tokens, "std::deque") ||
                             contains_token(tokens, "std::queue");
      if (queue_use && !is_include_line && !waived(fa, line_no, "bounded")) {
        emit(line_no, "bounded",
             "std::deque/std::queue on the alert path needs a "
             "'// simba-lint: bounded(<bound, shed path>)' waiver (same "
             "or previous line) naming the bound that keeps it from "
             "growing without limit under storm load");
      }
    }

    // [flatmap] — string-keyed ordered maps in the hot directories.
    // Lookups on the submit→deliver path walk map nodes; util::FlatMap
    // probes one hash bucket. The 'ordered' waiver marks the sites
    // whose sorted iteration is load-bearing (wire framing, config
    // dumps, report order) — everything else converts.
    if (flatmap_applies && !is_include_line && string_keyed_map(tokens) &&
        !waived(fa, line_no, "ordered")) {
      emit(line_no, "flatmap",
           "string-keyed std::map in a hot directory; use util::FlatMap "
           "(util/flat_map.h, transparent string_view hashing) with "
           "sorted_items() where order matters, or add a '// simba-lint: "
           "ordered' waiver (same or previous line) asserting the sorted "
           "iteration itself is load-bearing");
    }

    // [alloc] — trace/debug/info log messages must not be built
    // eagerly.
    if (in_src) {
      for (const auto& [name, macro] : kLazyLogCalls) {
        const std::size_t args = find_call_args(tokens, name);
        if (args == std::string::npos) continue;
        const std::string rest = tokens.substr(args);
        bool allocates = rest.find('+') != std::string::npos;
        for (const std::string_view call : kAllocCalls) {
          allocates = allocates || contains_any_call(rest, call);
        }
        if (allocates) {
          emit(line_no, "alloc",
               "message for '" + std::string(name) +
                   "(' is built eagerly (+/strformat/to_string in the "
                   "argument list) and allocates even when the level is "
                   "disabled; use " + std::string(macro) +
                   " (util/log.h) so the message is only built when it "
                   "will be written");
        }
      }
    }

    // [trace] — span timestamps must come from the sim clock.
    if (in_src) {
      const bool span_line = contains_token(tokens, "Span") ||
                             contains_any_call(tokens, "emit");
      if (span_line) {
        for (const std::string_view token : kWallClockSources) {
          if (contains_token(tokens, token)) {
            emit(line_no, "trace",
                 "trace span stamped from wall-clock source '" +
                     std::string(token) +
                     "'; spans carry virtual time only "
                     "(sim::Simulator::now) so merged traces stay "
                     "bit-identical across runs and thread counts");
          }
        }
      }
    }
  }

  if (in_src) check_schedule_labels(fa);

  // [waiver] — the audit: a waiver that suppressed nothing has
  // outlived its reason (or never had one) and must go, so stale
  // waivers can't quietly disable future diagnostics.
  for (const Waiver& w : fa.waivers) {
    if (w.kind != "ordered" && w.kind != "bounded" && w.kind != "label") {
      fa.diags.push_back(Diagnostic{
          fa.rel_path, w.line, "waiver",
          "unknown waiver kind '" + w.kind +
              "' (recognised: 'ordered', 'bounded(...)', 'label(...)')",
          Severity::kError});
    } else if (!w.used) {
      fa.diags.push_back(Diagnostic{
          fa.rel_path, w.line, "waiver",
          "waiver '// simba-lint: " + w.kind +
              "' does not suppress any diagnostic on this or the next "
              "line; remove it — waivers must not outlive their reason",
          Severity::kError});
    }
  }
}

}  // namespace simba::lint
