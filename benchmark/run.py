#!/usr/bin/env python3
"""Entry point of the Quartz end-to-end benchmark.

Builds the benchmark crate beside this file (release profile, offline)
and runs one workload from the root of the repository:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the result as one JSON object. A
traced run also writes its spans as ndjson under `<target dir>/spans/`.

    python3 benchmark/run.py --selftest

runs every workload of BENCHMARK.json at reduced size in both modes and
fails unless each run passes its correctness gate and prints exactly the
metrics BENCHMARK.json names, with their units, and unless two seeds give
two different simulated outputs.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def target_dir():
    """Where cargo puts the build: CARGO_TARGET_DIR, else the crate's target/."""
    env = os.environ.get("CARGO_TARGET_DIR")
    return os.path.abspath(env) if env else os.path.join(BENCH_DIR, "target")


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    # Build chatter goes to stderr: stdout carries only the result.
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    path = os.path.join(target_dir(), "release", "quartz-e2e-bench")
    return path if os.path.isfile(path) else None


def option(args, name):
    """The value following `name` in `args`, or None."""
    i = args.index(name) if name in args else -1
    return args[i + 1] if 0 <= i < len(args) - 1 else None


def run(binary, args):
    """Runs the benchmark binary with `args`, passing its output through."""
    if option(args, "--trace") == "1" and "--spans-out" not in args:
        spans = os.path.join(target_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        name = f"{option(args, '--workload')}-seed{option(args, '--seed')}.ndjson"
        args = args + ["--spans-out", os.path.join(spans, name)]
    return subprocess.run([binary] + args).returncode


def selftest(binary):
    """Reduced-size runs of every workload; returns the number of failures."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for w in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace, seed in (("0", "1"), ("1", "1"), ("0", "2")):
            args = ["--workload", w, "--seed", seed, "--seconds", "1",
                    "--trace", trace, "--quick"]
            out = subprocess.run([binary] + args, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            problems = []
            if out.returncode != 0 or not lines:
                problems.append(f"exit {out.returncode}: {out.stderr.strip()}")
            else:
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"correctness gate tripped: {out.stderr.strip()}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                for name, unit in expected[trace].items():
                    if got.get(name) != unit:
                        problems.append(f"metric {name} [{unit}] missing or mislabelled")
                for name in sorted(set(got) - set(expected[trace])):
                    problems.append(f"metric {name} is not in BENCHMARK.json")
                digests[(trace, seed)] = next(
                    (l.split()[-1] for l in lines if l.startswith("sim_digest ")), None)
            status = "ok" if not problems else "FAIL"
            print(f"selftest {w} trace={trace} seed={seed}: {status}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)
        if digests.get(("0", "1")) != digests.get(("1", "1")):
            print(f"selftest {w}: FAIL traced digest differs from untraced")
            failures += 1
        if digests.get(("0", "1")) == digests.get(("0", "2")):
            print(f"selftest {w}: FAIL seeds 1 and 2 give the same digest")
            failures += 1
    return failures


def main():
    args = sys.argv[1:]
    binary = build()
    if binary is None:
        print("benchmark build failed", file=sys.stderr)
        return 1
    if args == ["--selftest"]:
        return 1 if selftest(binary) else 0
    return run(binary, args)


if __name__ == "__main__":
    sys.exit(main())
