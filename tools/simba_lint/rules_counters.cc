// The [counters] passes: extracting counter-name literals from the
// token stream (collect_counter_sites) and validating them against
// the checked-in registry (check_counters). Extraction works on the
// cross-line token stream, so calls split across lines, adjacent
// string-literal concatenation, and ternary name selection (bare
// literals or CounterName("...") arms) all resolve to the literals
// that actually reach Counters::bump/get. Counters::add takes names
// built at run time; its literal prefixes ("tx." + medium, or
// std::string("tx.") + medium) are checked like bump's.
#include <map>

#include "registry.h"
#include "rules.h"

namespace simba::lint {
namespace {

// Edit-distance budget for the "did you mean" hint.
constexpr std::size_t kNearMissDistance = 2;

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

// Reads the string literal starting at `i`, gluing adjacent literal
// tokens ("conservation." "invented" split across lines). Returns the
// index just past the literal run.
std::size_t glue_literal(const std::vector<Token>& ts, std::size_t i,
                         std::string& out) {
  out.clear();
  while (i < ts.size() && ts[i].kind == Token::Kind::kString) {
    out += ts[i].text;
    ++i;
  }
  return i;
}

// A literal wrapped in one call that passes its text through:
// CounterName("a") (a ternary arm) or std::string("tx.") (the left
// operand of a computed name). On a match, reads the literal into
// `out` and returns the index just past the closing ')'; otherwise
// returns `i`.
std::size_t unwrap_literal(const std::vector<Token>& ts, std::size_t i,
                           std::string& out) {
  std::size_t open = i + 1;
  const bool counter_name =
      ts[i].kind == Token::Kind::kIdent && ts[i].text == "CounterName";
  const bool std_string = ts[i].kind == Token::Kind::kIdent &&
                          ts[i].text == "std" && i + 3 < ts.size() &&
                          is_punct(ts[i + 1], "::") &&
                          ts[i + 2].kind == Token::Kind::kIdent &&
                          ts[i + 2].text == "string";
  if (std_string) open = i + 3;
  if (!counter_name && !std_string) return i;
  if (open + 1 >= ts.size() || !is_punct(ts[open], "(") ||
      ts[open + 1].kind != Token::Kind::kString) {
    return i;
  }
  const std::size_t close = glue_literal(ts, open + 1, out);
  if (close >= ts.size() || !is_punct(ts[close], ")")) return i;
  return close + 1;
}

}  // namespace

void collect_counter_sites(FileAnalysis& fa) {
  const std::vector<Token>& ts = fa.lex.tokens;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (ts[i].kind != Token::Kind::kIdent) continue;
    const bool is_bump = ts[i].text == "bump";
    const bool is_get = ts[i].text == "get";
    const bool is_add = ts[i].text == "add";
    if (!is_bump && !is_get && !is_add) continue;
    if (!is_punct(ts[i + 1], "(")) continue;
    const bool member =
        i > 0 && (is_punct(ts[i - 1], ".") || is_punct(ts[i - 1], "->"));
    // bump() is distinctive enough to match free or member; get() and
    // add() only as member calls — free get(...) is any old accessor
    // (e.g. the alert-header lookup lambda in src/core/alert.cc).
    if ((is_get || is_add) && !member) continue;
    if (is_bump && i > 0 && is_punct(ts[i - 1], "::")) continue;

    // Scan the argument list: depth 1 is the call's own argument
    // level. The counter name is the literal that starts the first
    // argument — including each arm of a ternary (`cond ? "a" : "b"`),
    // whose literals sit right after '?' or ':' at depth 1.
    int depth = 1;
    bool at_arg_start = true;  // next literal run starts the name
    for (std::size_t j = i + 2; j < ts.size() && depth > 0;) {
      const Token& t = ts[j];
      if (t.kind == Token::Kind::kPunct) {
        if (t.text == "(" || t.text == "[" || t.text == "{") {
          ++depth;
        } else if (t.text == ")" || t.text == "]" || t.text == "}") {
          --depth;
        } else if (depth == 1 && (t.text == "?" || t.text == ":")) {
          at_arg_start = true;  // each ternary arm names a counter
        } else if (depth == 1 && t.text == ",") {
          break;  // rest is the bump amount; no names there
        }
        ++j;
        continue;
      }
      if (depth == 1 && at_arg_start) {
        CounterSite site;
        site.line = t.line;
        site.is_bump = is_bump || is_add;
        const std::size_t next = t.kind == Token::Kind::kString
                                     ? glue_literal(ts, j, site.name)
                                     : unwrap_literal(ts, j, site.name);
        if (next != j) {
          // A literal glued to '+' is a key *prefix* ("seen_via_" +
          // transport), not a full name. add() takes only computed
          // names, so a whole literal there is some other add() (a
          // Summary, a caption table, a JSON writer), not a counter.
          site.is_prefix = next < ts.size() && is_punct(ts[next], "+");
          if (!site.name.empty() && (site.is_prefix || !is_add)) {
            fa.counter_sites.push_back(std::move(site));
          }
          j = next;
          at_arg_start = false;
          continue;
        }
      }
      // An identifier or stray literal: this argument's name (if any)
      // is computed, not literal — nothing to record until the next
      // ternary arm.
      at_arg_start = false;
      ++j;
    }
  }
}

void check_counters(const CounterRegistry& registry,
                    const std::string& def_rel_path,
                    const std::vector<FileAnalysis>& files,
                    std::vector<Diagnostic>& diags) {
  // name -> has a bump site somewhere. Prefix *uses* mark every entry
  // they could produce ("seen_via_" marks seen_via_im/email/sms).
  std::map<std::string, bool> bumped;
  for (const FileAnalysis& fa : files) {
    for (const CounterSite& site : fa.counter_sites) {
      if (site.is_prefix) {
        if (!registry.resolve_prefix(site.name)) {
          diags.push_back(Diagnostic{
              fa.rel_path, site.line, "counters",
              "counter-name prefix \"" + site.name +
                  "\" matches no registered counter or pattern; register "
                  "the dynamic names it produces in " + def_rel_path,
              Severity::kError});
        } else if (site.is_bump) {
          for (const CounterEntry& entry : registry.entries()) {
            if (entry.name.size() >= site.name.size() &&
                entry.name.compare(0, site.name.size(), site.name) == 0) {
              bumped[entry.name] = true;
            }
          }
        }
        continue;
      }
      const CounterEntry* entry = registry.resolve(site.name);
      if (entry == nullptr) {
        std::string message =
            "counter \"" + site.name + "\" is not registered in " +
            def_rel_path;
        const std::string hint =
            registry.nearest(site.name, kNearMissDistance);
        if (!hint.empty()) {
          message += " — did you mean \"" + hint + "\"?";
        } else {
          message += " — add it (name, subsystem, role, doc) or fix the name";
        }
        diags.push_back(Diagnostic{fa.rel_path, site.line, "counters",
                                   std::move(message), Severity::kError});
        continue;
      }
      if (site.is_bump) bumped[entry->name] = true;
    }
  }
  // The reverse direction: a registered literal counter nothing ever
  // bumps is registry rot (a rename that forgot the .def, or a dead
  // counter) — unless it is declared dynamic, i.e. bumped through a
  // computed key the lexical sweep cannot see.
  for (const CounterEntry& entry : registry.entries()) {
    if (entry.dynamic || entry.prefix) continue;
    if (!bumped[entry.name]) {
      diags.push_back(Diagnostic{
          def_rel_path, entry.line, "counters",
          "registered counter '" + entry.name +
              "' has no bump(\"...\") site anywhere in the tree; delete "
              "the entry or mark it 'dynamic' if it is bumped through a "
              "computed key",
          Severity::kError});
    }
  }
}

}  // namespace simba::lint
