// Labeled scheduling, and at() calls that are not on the simulator:
// never flagged by [label].
namespace simba::core {
struct Host {
  void start() {
    sim_.at(boot_at_, [this] {
      tick(1, 2);
    }, "host.boot");
    sim_.after(seconds(1), [this] { tick(3, 4); }, "host.tick");
  }
  int lookup(const Names& names) const { return names.at("sim_.at("); }
  void tick(int, int);
  sim::Simulator& sim_;
  TimePoint boot_at_;
};
}  // namespace simba::core
