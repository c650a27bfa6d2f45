// String interning for labels built or read at run time.
//
// The simulator kernel stores event labels as `const char*`, and
// every component passes a string literal naming the event kind. The
// one label built at run time is net::MessageBus's per-message-type
// delivery label, "net.deliver:<type>": the bus interns each once and
// reuses the stable pointer. The message types bound that set.
//
// The bus's interner is per-instance: every fleet shard owns its own
// bus, so it needs no locking and TSan stays quiet. The one
// process-wide table is Trace::label's (util/trace.cc), behind a
// util::Mutex. It is global because span labels read from a checkpoint
// image must outlive every trace the span is moved or copied into, as
// string literals do, so no trace or decoder may own them.
#pragma once

#include <deque>
#include <string>
#include <string_view>

#include "util/flat_map.h"

namespace simba::util {

/// Owns a deduplicated set of strings and hands out stable C-string
/// pointers into them. The flat-map index is keyed by string_views
/// into a std::deque backing store — the deque never moves a stored
/// std::string (SSO would otherwise invalidate c_str() on short
/// strings when a vector reallocates), so pointers stay valid for the
/// interner's lifetime. Not thread-safe; intended to be owned by a
/// single-threaded component alongside its Simulator.
class StringInterner {
 public:
  /// Returns a stable NUL-terminated pointer to a string equal to
  /// `text`, inserting it on first sight. One hash probe with no
  /// allocation when `text` was seen before.
  const char* intern(std::string_view text) {
    const auto it = index_.find(text);
    if (it != index_.end()) return it->second;
    storage_.emplace_back(text);
    const std::string& stored = storage_.back();
    index_.emplace(std::string_view(stored), stored.c_str());
    return stored.c_str();
  }

  std::size_t size() const { return storage_.size(); }

 private:
  std::deque<std::string> storage_;
  FlatMap<std::string_view, const char*> index_;
};

}  // namespace simba::util
