// Labeled scheduling, a waived runtime label, and at() calls that are
// not on the simulator: never flagged by [label].
namespace simba::core {
struct Host {
  void start() {
    sim_.at(boot_at_, [this] {
      tick(1, 2);
    }, "host.boot");
    sim_.after(seconds(1), [this] { tick(3, 4); }, "host.tick");
    sim().every(seconds(5), [this] { tick(5, 6); }, "host.poll");
    // simba-lint: label(one label per message type, a bounded set)
    sim_.after(seconds(2), [this] { tick(7, 8); }, type_label_);
  }
  int lookup(const Names& names) const { return names.at("sim_.at("); }
  void tick(int, int);
  sim::Simulator& sim() { return sim_; }
  sim::Simulator& sim_;
  const char* type_label_;
  TimePoint boot_at_;
};
}  // namespace simba::core
