// Near-miss, unknown, and unresolvable-prefix counter sites.
void record(Counters& c, const std::string& k) {
  c.bump("alert_sent");
  c.bump("totally_unknown");
  c.bump("zz." + k);
}
// A misspelt CounterName arm and unresolvable add() prefixes.
void record_computed(Counters& c, bool seen, const std::string& k) {
  c.bump(seen ? CounterName("alerts_seen") : CounterName("alerts_sentt"));
  c.add("yy." + k);
  c.add(std::string("xx.") + k, 2);
}
