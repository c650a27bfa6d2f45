// Compile-only check of simba::CounterName (util/stats.h). ctest
// compiles this file with -fsyntax-only once per case below
// (tests/CMakeLists.txt): the literal case must compile, and the other
// two must not, because only a constant expression with static storage
// converts to a CounterName. That is what lets Counters::bump key its
// index on the name's address.
#include "util/stats.h"

namespace {

constexpr char kStaticName[] = "sent";

}  // namespace

void bump_case(simba::Counters& counters, const char* runtime_name) {
#if defined(SIMBA_COUNTER_NAME_LITERAL)
  counters.bump("sent");
  counters.bump(kStaticName, 2);
  counters.bump(runtime_name != nullptr ? simba::CounterName("sent")
                                        : simba::CounterName(kStaticName));
#elif defined(SIMBA_COUNTER_NAME_RUNTIME_POINTER)
  counters.bump(runtime_name);
#elif defined(SIMBA_COUNTER_NAME_LOCAL_ARRAY)
  // Its text is a constant, but its address is not.
  constexpr char local[] = "sent";
  counters.bump(local);
  (void)runtime_name;
#else
#error "define one SIMBA_COUNTER_NAME_* case"
#endif
}
