// Label fixture: a sim.at/after/every (or sim_. or sim().) call without
// its third, label argument is flagged, also when its lambda spans
// lines; so is a label that is not one string literal, and a label
// waiver over a call that needs none.
namespace simba::fleet {
void schedule(sim::Simulator& sim, TimePoint t) {
  sim.at(t, [] {});
  sim.after(seconds(1), [t] {
    record(t, 1);
  });
  sim.every(seconds(5), [] { record({}, 2); }, "fleet.tick");
}

struct Host {
  void start() { sim_.every(seconds(5), [this] { record({}, 3); }); }
  void arm(const std::string& name) {
    sim().after(seconds(1), [this] { record({}, 4); });
    sim_.after(seconds(2), [this] { record({}, 5); },
               ("fleet." + name).c_str());
    // simba-lint: label(stale: the label below is a literal)
    sim_.after(seconds(3), [this] { record({}, 6); }, "fleet.arm");
  }
  sim::Simulator& sim() { return sim_; }
  sim::Simulator& sim_;
};
}  // namespace simba::fleet
