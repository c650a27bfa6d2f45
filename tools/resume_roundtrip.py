#!/usr/bin/env python3
"""Cross-process checkpoint/restore round trip (tier-1 ctest).

tests/resume_test.cc proves resume equivalence inside one process; this
driver closes the loophole by splitting the legs across *processes*,
exactly as a crash-restart would:

  A: one uninterrupted resumable run            -> a.json + a.jsonl
  B: same options, checkpoint after epoch 1,
     die at the checkpoint                      -> ckpt.bin
  C: fresh process decodes ckpt.bin, finishes   -> c.json + c.jsonl

Pass criteria: A and C byte-identical in the correctness report and the
merged JSONL lifecycle trace, and a truncated image must be rejected
cleanly: the resume leg exits with code 1 and prints "resume failed:"
on stderr (a crash or an abort is not a clean rejection).

Usage: resume_roundtrip.py /path/to/bench
where bench is bench_portal_scale (portal e-mail kind) or
bench_fault_month (chaos kind).
"""

import json
import pathlib
import subprocess
import sys
import tempfile

COMMON = ["--users", "2", "--threads", "1", "--seed", "7", "--epochs", "3"]


def run(bench, *extra, expect_rejection=False):
    cmd = [str(bench)] + COMMON + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if expect_rejection:
        if proc.returncode != 1 or "resume failed:" not in proc.stderr:
            fail(f"{' '.join(cmd)}: expected a clean rejection (exit 1 and "
                 f"'resume failed:' on stderr), got exit {proc.returncode}\n"
                 f"{proc.stderr}")
    elif proc.returncode != 0:
        fail(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr}")
    return proc


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail("usage: resume_roundtrip.py /path/to/bench")
    bench = pathlib.Path(sys.argv[1])
    if not bench.exists():
        fail(f"bench binary not found: {bench}")

    with tempfile.TemporaryDirectory(prefix="simba-roundtrip-") as tmp:
        d = pathlib.Path(tmp)
        a_json, a_jsonl = d / "a.json", d / "a.jsonl"
        c_json, c_jsonl = d / "c.json", d / "c.jsonl"
        ckpt = d / "ckpt.bin"

        # Leg A: the run that never dies.
        run(bench, "--json", a_json, "--trace-jsonl", a_jsonl)

        # Leg B: checkpoint after epoch 1, then die. Only the image
        # survives this process.
        run(bench, "--checkpoint-every", "1", "--stop-at-checkpoint",
            "--checkpoint-path", ckpt, "--json", d / "b.json")
        b = json.loads((d / "b.json").read_text())
        if b["completed"] != 0:
            fail("leg B reported completed despite --stop-at-checkpoint")
        image = ckpt.read_bytes()
        if len(image) == 0:
            fail("leg B wrote an empty checkpoint image")
        if b["checkpoint_bytes"] != len(image):
            fail(f"checkpoint_bytes {b['checkpoint_bytes']} != file size "
                 f"{len(image)}")

        # Leg C: a fresh process decodes the image and finishes.
        run(bench, "--resume-from", ckpt, "--json", c_json,
            "--trace-jsonl", c_jsonl)

        a = json.loads(a_json.read_text())
        c = json.loads(c_json.read_text())
        if a["correctness"] != c["correctness"]:
            fail("resumed correctness report diverged from the "
                 f"uninterrupted run:\nA: {a['correctness']}\n"
                 f"C: {c['correctness']}")
        if a_jsonl.read_bytes() != c_jsonl.read_bytes():
            fail("resumed JSONL trace diverged from the uninterrupted run")
        if c["ckpt_restored"] != a["shards"]:
            fail(f"expected {a['shards']} restored shards, got "
                 f"{c['ckpt_restored']}")

        # Negative leg: a truncated image must be rejected cleanly.
        truncated = d / "truncated.bin"
        truncated.write_bytes(image[: len(image) // 2])
        run(bench, "--resume-from", truncated, expect_rejection=True)

        print(f"PASS: cross-process round trip byte-identical "
              f"(checkpoint {len(image)} bytes, "
              f"correctness {len(a['correctness'])} bytes, "
              f"trace {a_jsonl.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
