// Fixture: eager message construction in trace/debug/info logging.
#include <string>

namespace fixture {

void log_debug(const std::string&, const std::string&);
void log_trace(const std::string&, const std::string&);
void log_warn(const std::string&, const std::string&);
std::string strformat(const char*, int);

void bad(const std::string& user, int n) {
  log_debug("core", "routing for " + user);            // flagged: '+'
  log_trace("core", strformat("attempt %d", n));       // flagged: strformat
  log_debug("core", std::to_string(n));                // flagged: to_string
  log_debug("core", "static message");                 // clean: literal only
  log_warn("core", "failed for " + user);              // clean: warn is rare
}

void log_info(const std::string&, const std::string&);

void bad_info(const std::string& user) {
  log_info("core", "booted " + user);                  // flagged: '+'
  log_info("core", "static message");                  // clean: literal only
}

}  // namespace fixture
