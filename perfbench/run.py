#!/usr/bin/env python3
"""Builds and runs the two-clock migration benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload evacuate_quorum --seed 7 --seconds 50 --trace 0

The simulator and the driver (perfbench.cc) are compiled from this tree into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The driver runs
pinned to one CPU. Its result is checked against the fingerprints of earlier
runs of the same sources at the same seed in .bench_out/, and the last line
printed is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exit status is 0 only when every output check passed.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("evacuate_quorum", "hybrid_kv", "kv_traffic")


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(bench_dir, build_dir):
    """Configures (CMake refuses a build dir configured from another source
    tree), then brings the driver up to date."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = [["cmake", "-S", bench_dir, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd), 3)
    return os.path.join(build_dir, "mig_perfbench")


def pin_cpu():
    """One CPU for the whole run: the simulator runs one sim thread at a time,
    so more cores only add cross-core wake-ups."""
    return max(os.sched_getaffinity(0))


def source_digest(dirs):
    """Digest of every file under `dirs`: fingerprints are only comparable
    between runs of the same code."""
    h = hashlib.sha256()
    for top in dirs:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
                h.update(b"\0")
    return h.hexdigest()[:16]


def check_fingerprint(path, value):
    """Same seed, same inputs: a run must reproduce the model values and
    counts of every earlier run at its seed."""
    if not value:
        return None
    if os.path.exists(path):
        with open(path) as f:
            if f.read() != value:
                return "disagrees with an earlier run at this seed: " + path
        return None
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(value)
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(bench_dir), "src")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(src_dir, "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to " + bench_dir, 2)

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(bench_dir, os.path.join(root, build_root, "perfbench"))
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    timeout_s = 2 * args.seconds + 60  # 160 s at the configured 50 s
    cpu = pin_cpu()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    # A terminated run.py takes the driver down with it.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        stdout, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % timeout_s, 4)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.decode().strip().splitlines()
    if not lines:
        fail("driver printed nothing (exit %d)" % proc.returncode, 5)
    result = json.loads(lines[-1])

    problems = list(result["problems"])
    fp_dir = os.path.join(out_dir, "fingerprints",
                          source_digest([src_dir, bench_dir]))
    stem = os.path.join(fp_dir, "%s-seed%d" % (args.workload, args.seed))
    for path, value in ((stem + ".model", result["model_fingerprint"]),
                        (stem + ".counts", result["count_fingerprint"])):
        problem = check_fingerprint(path, value)
        if problem:
            problems.append(problem)
    if proc.returncode != 0 and not problems:
        problems.append("driver exited with %d" % proc.returncode)

    correct = not problems
    failed = result["failed"]
    if not correct and failed == 0:
        failed = 1  # the run itself disagreed with an earlier one
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    print("perfbench: %s seed %d on cpu %d, %d rounds, %.1f s" %
          (args.workload, args.seed, cpu, result["rounds"],
           time.monotonic() - started), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
