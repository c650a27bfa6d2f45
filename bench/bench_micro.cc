// Experiment E11 — microbenchmarks (google-benchmark) for the SIMBA
// library's hot paths: XML parsing of the subscription-layer documents,
// classification/aggregation, the pessimistic log, delivery-mode
// parsing, SSS operations, and the simulation kernel itself.
#include <benchmark/benchmark.h>

#include "core/address_book.h"
#include "core/alert_log.h"
#include "core/category_map.h"
#include "core/classifier.h"
#include "core/delivery_mode.h"
#include "net/bus.h"
#include "sim/simulator.h"
#include "sss/sss.h"
#include "xml/xml.h"

namespace simba {
namespace {

void BM_XmlParseDeliveryMode(benchmark::State& state) {
  const std::string doc = core::DeliveryMode::sample_urgent_mode().to_xml();
  for (auto _ : state) {
    auto parsed = core::DeliveryMode::from_xml(doc);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_XmlParseDeliveryMode);

void BM_XmlSerializeDeliveryMode(benchmark::State& state) {
  const core::DeliveryMode mode = core::DeliveryMode::sample_urgent_mode();
  for (auto _ : state) {
    std::string out = mode.to_xml();
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_XmlSerializeDeliveryMode);

void BM_XmlParseAddressBook(benchmark::State& state) {
  core::AddressBook book("alice");
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    // Appends instead of operator+ chains: sidesteps a GCC 12
    // -Werror=restrict false positive at -O2.
    std::string name = "addr";
    name += std::to_string(i);
    std::string addr = "a";
    addr += std::to_string(i);
    addr += "@x.example";
    book.put(core::Address{std::move(name), core::CommType::kEmail,
                           std::move(addr), true});
  }
  const std::string doc = book.to_xml();
  for (auto _ : state) {
    auto parsed = core::AddressBook::from_xml(doc);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_XmlParseAddressBook)->Range(4, 256)->Complexity();

void BM_ClassifyAlert(benchmark::State& state) {
  core::AlertClassifier classifier;
  for (int i = 0; i < 20; ++i) {
    classifier.add_rule(core::SourceRule{
        "source" + std::to_string(i), core::KeywordLocation::kSubject,
        {"alpha", "beta", "gamma", "delta"}, ""});
  }
  core::Alert alert;
  alert.source = "source13";
  alert.subject = "some long subject line mentioning gamma rays";
  for (auto _ : state) {
    auto keyword = classifier.classify(alert);
    benchmark::DoNotOptimize(keyword);
  }
}
BENCHMARK(BM_ClassifyAlert);

void BM_CategoryLookup(benchmark::State& state) {
  core::CategoryMap map;
  for (int i = 0; i < 50; ++i) {
    map.map_keyword("keyword" + std::to_string(i), "Category");
  }
  for (auto _ : state) {
    auto category = map.category_for("keyword37");
    benchmark::DoNotOptimize(category);
  }
}
BENCHMARK(BM_CategoryLookup);

void BM_AlertLogAppendMark(benchmark::State& state) {
  std::int64_t i = 0;
  core::AlertLog log;
  core::Alert alert;
  alert.subject = "s";
  for (auto _ : state) {
    alert.id = "id-" + std::to_string(i++);
    log.append(alert, kTimeZero);
    log.mark_processed(alert.id, kTimeZero);
  }
}
BENCHMARK(BM_AlertLogAppendMark);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim(1);
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
      sim.after(micros(i), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorScheduleRun)->Range(64, 8192);

void BM_BusRoundTrip(benchmark::State& state) {
  sim::Simulator sim(1);
  net::MessageBus bus(sim);
  std::int64_t received = 0;
  bus.attach("b", [&](const net::Message&) { ++received; });
  net::Message proto;
  proto.from = bus.intern("a");
  proto.to = bus.intern("b");
  proto.type = "t";
  for (auto _ : state) {
    bus.send(net::Message(proto));
    sim.run();
  }
  benchmark::DoNotOptimize(received);
}
BENCHMARK(BM_BusRoundTrip);

void BM_SssWrite(benchmark::State& state) {
  sim::Simulator sim(1);
  sss::SssServer store(sim, "node");
  store.define_type("t");
  store.create("t", "v", "0", Duration::zero(), 0);
  std::int64_t i = 0;
  for (auto _ : state) {
    store.write("v", std::to_string(i++));
  }
}
BENCHMARK(BM_SssWrite);

void BM_SssReplicatedWrite(benchmark::State& state) {
  sim::Simulator sim(1);
  sss::MediumModel instant;
  instant.base_latency = micros(1);
  instant.jitter = micros(1);
  sss::SssReplicationGroup group(sim, instant);
  sss::SssServer a(sim, "a"), b(sim, "b");
  group.join(a);
  group.join(b);
  a.define_type("t");
  a.create("t", "v", "0", Duration::zero(), 0);
  std::int64_t i = 0;
  for (auto _ : state) {
    a.write("v", std::to_string(i++));
    sim.run();
  }
}
BENCHMARK(BM_SssReplicatedWrite);

void BM_RngChildStream(benchmark::State& state) {
  Rng root(1);
  for (auto _ : state) {
    Rng child = root.child("component.name");
    benchmark::DoNotOptimize(child.next());
  }
}
BENCHMARK(BM_RngChildStream);

}  // namespace
}  // namespace simba

BENCHMARK_MAIN();
