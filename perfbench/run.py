#!/usr/bin/env python3
"""Builds and runs the PeerHood benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload crowd|rooms|loopback --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first run configures and builds
perfbench/ (the repository's libraries plus the ph_perfbench binary) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
rebuild what changed. Build output goes to stderr; stdout carries the
report and, as its last line, the result JSON. A failed build or a missing
source tree exits non-zero without printing a result.

--smoke runs every workload of BENCHMARK.json at a tiny size, traced and
untraced, and checks that each prints exactly the metrics BENCHMARK.json
names, with their units, and passes its correctness checks.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the first one, which builds, within 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds ph_perfbench; returns its path or None."""
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    steps = []
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        steps.append(cmd)
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        remaining = deadline - time.monotonic()
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=max(1, remaining))
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return None
    binary = os.path.join(out, "ph_perfbench")
    return binary if os.path.exists(binary) else None


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def run(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, stdout text)."""
    sockets = os.path.join(build_dir(), "sock")
    os.makedirs(sockets, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           # Relative to the repository root: UNIX socket paths are short.
           "--socket-dir", os.path.relpath(sockets, ROOT)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        spans = os.path.join(build_dir(), "spans-%s-%s.json" % (workload, seed))
        cmd += ["--trace-out", spans]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = done.returncode, done.stdout
        sys.stderr.write(done.stderr)
    except subprocess.TimeoutExpired as timeout:
        code = 124
        out = timeout.stdout.decode() if timeout.stdout else ""
        out += "perfbench: %s did not finish within %d s\n" % (
            workload, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(sockets, ignore_errors=True)
    return code, out


def parse_result(out):
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, out = run(binary, workload, 1, 1, trace, smoke=True)
            result = parse_result(out)
            want = {m["name"]: m["unit"] for m in names}
            got = ({k: v.get("unit") for k, v in result["metrics"].items()}
                   if result else None)
            good = (code == 0 and result is not None and result["correct"]
                    and result["attempted"] >= 1 and got == want)
            print("smoke %-9s trace=%d %s" % (workload, trace,
                                              "ok" if good else "FAILED"))
            if not good:
                ok = False
                sys.stdout.write(out)
                if got is not None and got != want:
                    print("  missing: %s" % sorted(set(want) - set(got)))
                    print("  extra:   %s" % sorted(set(got) - set(want)))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)

    code, out = run(binary, args.workload, args.seed, args.seconds, args.trace)
    result = parse_result(out)
    lines = out.splitlines()
    body = lines[:-1] if result is not None else lines
    for line in body:
        print(line)
    print("commit: %s" % commit())
    if args.trace:
        print("spans: %s" % os.path.join(
            build_dir(), "spans-%s-%s.json" % (args.workload, args.seed)))
    if result is None:
        print("perfbench: %s printed no result (exit %d)" % (args.workload,
                                                             code))
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
