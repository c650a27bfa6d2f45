// The counter registry behind the [counters] rule. SIMBA's extended
// conservation identity (submitted = delivered + failed + shed +
// coalesced + in-flight) is fed by free-form Counters::bump("...")
// literals; one typo silently leaks alerts out of the invariant. The
// registry (src/util/counter_registry.def) declares every counter —
// name, owning subsystem, one-line doc, and its role in the identity —
// and the rule validates every use site against it, both directions:
// unregistered names are errors (with an edit-distance hint), and
// registered names no bump site can account for are errors too, so
// the registry cannot rot.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint.h"

namespace simba::lint {

struct CounterEntry {
  std::string name;  // canonical name; prefix entries lose the '*'
  bool prefix = false;    // declared "name.*": matches any suffix
  bool dynamic = false;   // bumped through a computed key, so the
                          // lexical sweep cannot see the bump site
  std::string subsystem;  // owning module ("core", "net", "test", ...)
  enum class Role { kSource, kSink, kNeutral } role = Role::kNeutral;
  std::string doc;
  int line = 0;  // line in the .def file
};

/// Parsed registry. Entry syntax (one per line, '#' comments):
///
///   <name>  <subsystem>  <source|sink|neutral>  [dynamic]  -- <doc>
///
/// A trailing '*' on the name declares a prefix pattern ("tx.*"),
/// which is implicitly dynamic. Malformed lines, duplicate names, and
/// unknown subsystems/roles come back as [counters] diagnostics
/// against the .def file itself.
class CounterRegistry {
 public:
  static CounterRegistry parse(const std::string& content,
                               const std::string& def_rel_path,
                               std::vector<Diagnostic>& diags);

  /// True once parse() saw a registry file (even an empty one).
  bool loaded() const { return loaded_; }

  /// Exact entry for `name`, or the prefix entry covering it, or
  /// nullptr when unregistered.
  const CounterEntry* resolve(std::string_view name) const;

  /// Resolution for a literal used as a name *prefix*
  /// (`add("seen_via_" + suffix)`): true when some registered name or
  /// prefix pattern extends or equals the literal.
  bool resolve_prefix(std::string_view literal) const;

  /// Closest registered name within `max_distance` edits
  /// (Levenshtein), or "" when nothing is near — the typo hint.
  std::string nearest(std::string_view name, std::size_t max_distance) const;

  const std::vector<CounterEntry>& entries() const { return entries_; }

 private:
  std::vector<CounterEntry> entries_;  // sorted by name
  bool loaded_ = false;
};

}  // namespace simba::lint
