// Counter sites the registry covers: exact, glued across lines,
// ternary-selected, and a prefix that a pattern entry matches.
void record(Counters& c, bool seen, const std::string& lane) {
  c.bump("alerts_sent");
  c.bump(
      "alerts_"
      "seen");
  c.bump(seen ? "alerts_seen" : "alerts_sent");
  c.bump("lanes." + lane);
  c.bump("ckpt.saved");
}
// CounterName ternary arms, add() prefixes into a pattern, an add()
// of a computed name, and add() calls that are not counter sites.
void record_computed(Counters& c, Summary& s, bool seen,
                     const std::string& lane) {
  c.bump(seen ? CounterName("alerts_seen") : CounterName("alerts_sent"));
  c.add("lanes." + lane);
  c.add(std::string("lanes.") + lane, 2);
  c.add(lane);
  s.add("not a counter", 1.0);
}
