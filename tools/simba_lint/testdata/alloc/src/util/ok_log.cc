// Fixture: the lazy macros and allocation-free calls stay clean.
#include <string>

namespace fixture {

void log_debug(const std::string&, const std::string&);
#define SIMBA_LOG_DEBUG(component, message_expr) ((void)(message_expr))
#define SIMBA_LOG_INFO(component, message_expr) ((void)(message_expr))

void ok(const std::string& user) {
  SIMBA_LOG_DEBUG("util", "routing for " + user);  // lazy: not flagged
  log_debug("util", user);                         // no build on this line
  // log_debug("util", "commented " + user);       // comments don't trip
  log_debug("util", "a + b in a literal");         // strings are stripped
  SIMBA_LOG_INFO("util", "booted " + user);        // lazy: not flagged
}

}  // namespace fixture
