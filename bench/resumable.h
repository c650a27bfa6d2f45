// Shared resumable-mode harness for the benches that support
// checkpoint/restore (--epochs / --checkpoint-every / --resume-from):
// routes the run through the resumable fleet driver (fleet/resume.h),
// writes/reads the checkpoint image file, and emits a fully
// deterministic report so two *processes* can be byte-compared —
// tools/resume_roundtrip.py drives exactly that as a tier-1 ctest.
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <variant>

#include "common.h"
#include "fleet/resume.h"

namespace simba::bench {

/// True when any checkpoint/resume flag was given — the bench should
/// hand the run to run_resumable_bench instead of its legacy path.
inline bool resumable_mode(const Options& options) {
  return options.epochs > 0 || options.checkpoint_every > 0 ||
         !options.resume_from.empty();
}

/// Runs `base` (the bench's workload shape) under the resumable driver
/// with the CLI overrides applied. Returns a process exit code: a
/// malformed or mismatched checkpoint image is a clean nonzero exit,
/// never UB. Everything printed and written here is a pure function of
/// the options — no wall-clock, no RSS — so the round-trip comparison
/// can demand byte equality.
inline int run_resumable_bench(const std::string& bench_name,
                               const Options& cli,
                               fleet::ResumableOptions base) {
  fleet::ResumableOptions options = std::move(base);
  if (cli.epochs > 0) options.epochs = cli.epochs;
  if (cli.users > 0) options.fleet.shards = static_cast<std::size_t>(cli.users);
  options.fleet.threads = cli.threads;
  options.fleet.base_seed = cli.seed;
  if (!cli.trace_jsonl.empty()) {
    // The dump reads every span, a one-epoch run included.
    std::visit([](auto& workload) { workload.world.keep_spans = true; },
               options.workload);
  }

  fleet::ResumeControl control;
  control.checkpoint_after_epoch = cli.checkpoint_every;
  control.stop_at_checkpoint = cli.stop_at_checkpoint;

  Counters ckpt;
  fleet::ResumableRun run;
  if (!cli.resume_from.empty()) {
    std::ifstream in(cli.resume_from, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read checkpoint %s\n",
                   cli.resume_from.c_str());
      return 1;
    }
    std::ostringstream blob;
    blob << in.rdbuf();
    Result<fleet::ResumableRun> resumed =
        fleet::resume_fleet(options, blob.str(), control, &ckpt);
    if (!resumed.ok()) {
      std::fprintf(stderr, "resume failed: %s\n", resumed.error().c_str());
      return 1;
    }
    run = std::move(resumed).take();
  } else {
    run = fleet::run_resumable_fleet(options, control, &ckpt);
  }

  if (!run.checkpoint.empty() && !cli.checkpoint_path.empty()) {
    std::ofstream out(cli.checkpoint_path,
                      std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write checkpoint %s\n",
                   cli.checkpoint_path.c_str());
      return 1;
    }
    out << run.checkpoint;
  }

  print_section(bench_name + ": resumable " +
                fleet::to_string(fleet::kind_of(options)) + " fleet");
  std::printf("  shards=%zu threads=%d seed=%llu epochs=%d\n",
              options.fleet.shards, options.fleet.threads,
              static_cast<unsigned long long>(options.fleet.base_seed),
              options.epochs);
  std::printf("  completed=%s checkpoint_bytes=%zu saved=%lld restored=%lld\n",
              run.completed ? "yes" : "no (stopped at checkpoint)",
              run.checkpoint.size(),
              static_cast<long long>(ckpt.get("ckpt.saved")),
              static_cast<long long>(ckpt.get("ckpt.restored")));
  if (run.completed) {
    std::printf("  sent=%lld delivered=%lld lost=%lld duplicates=%lld\n",
                static_cast<long long>(run.report.counters.get("alerts.sent")),
                static_cast<long long>(
                    run.report.counters.get("alerts.delivered")),
                static_cast<long long>(run.report.counters.get("alerts.lost")),
                static_cast<long long>(
                    run.report.counters.get("alerts.duplicates")));
  }

  if (!cli.trace_jsonl.empty() && run.completed) {
    std::ofstream out(cli.trace_jsonl, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.trace_jsonl.c_str());
      return 1;
    }
    out << run.report.trace.to_jsonl();
  }

  if (!cli.json.empty()) {
    JsonReport json;
    json.add("bench", bench_name);
    json.add("mode", std::string("resumable"));
    json.add("kind", std::string(fleet::to_string(fleet::kind_of(options))));
    json.add("seed", cli.seed);
    json.add("shards", static_cast<std::int64_t>(options.fleet.shards));
    json.add("epochs", options.epochs);
    json.add("completed", run.completed ? 1 : 0);
    json.add("checkpoint_bytes",
             static_cast<std::int64_t>(run.checkpoint.size()));
    json.add("ckpt_saved", ckpt.get("ckpt.saved"));
    json.add("ckpt_restored", ckpt.get("ckpt.restored"));
    if (run.completed) {
      json.add("correctness", run.report.correctness_json());
    }
    if (!json.write_to(cli.json)) return 1;
  }
  return 0;
}

}  // namespace simba::bench
