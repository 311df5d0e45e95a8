#!/usr/bin/env python3
"""Build and run the host-time benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]

Run it from the root of the repository. It builds the `perfbench`
package (its own Cargo workspace, depending on the repository's crates
by path) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs it with glibc malloc set to keep freed memory, and
prints the benchmark's output followed by a `host` line and, as the
last line, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

With `--out FILE`, one JSON record per run (workload, seed, host, the
per-metric medians/quartiles/sample counts and the result) is appended
to FILE; `perfbench/compare.py` compares two such files.

Exits non-zero without printing a result when the build or the
benchmark fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark bounds its own runs by --seconds; this only stops a hung one.
RUN_TIMEOUT_S = 170
# glibc malloc keeps freed memory for reuse instead of unmapping it. Every
# checkpoint round trip builds a whole runner and drops the old one; with
# the default thresholds each build maps and faults in fresh pages, whose
# cost on a shared host swings with other tenants' memory traffic
# (resume_ms on paper180 spread 0.32 of its median over five interleaved
# 55 s runs on a 2-vCPU Xeon VM, and 0.08 with these settings). The
# allocations themselves are still timed. Other C libraries ignore it.
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=4294967296"


def host_info():
    """nproc, CPU model, rustc version and git commit of this host/checkout."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def cmd(argv, **kw):
        try:
            r = subprocess.run(argv, capture_output=True, text=True, timeout=30, **kw)
            return r.stdout.strip() if r.returncode == 0 else "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    # Stop git at the checkout root so a parent repository is never used.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "rustc": cmd(["rustc", "--version"]),
        "git_commit": cmd(["git", "-C", ROOT, "rev-parse", "HEAD"], env=git_env),
    }


def build(target_dir):
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    r = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    return r.returncode == 0


def run_bench(binary, argv):
    """Runs the benchmark; returns (exit code, stdout lines)."""
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    try:
        r = subprocess.run([binary] + argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, []
    return r.returncode, r.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--out", help="append a JSON record of this run to this file")
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(target):
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    argv = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    code, lines = run_bench(binary, argv)
    if code != 0 or not lines:
        print(f"run.py: the benchmark exited with code {code}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return 1

    detail = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    host = host_info()
    print("host " + json.dumps(host, sort_keys=True))
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": int(args.trace),
            "host": host,
            "detail": detail,
            "result": result,
        }
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
