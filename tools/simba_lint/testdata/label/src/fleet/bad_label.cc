// Label fixture: a sim.at/after/every (or sim_.) call without its
// third, label argument is flagged, also when its lambda spans lines.
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
  sim::Simulator& sim_;
};
}  // namespace simba::fleet
