#!/usr/bin/env python3
"""Build and run one perfbench run; print its result as the last line.

    python3 perfbench/run.py --workload warm_zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The package in perfbench/ is configured and
built (Release, incrementally) into $CARGO_TARGET_DIR or .bench_build,
including the repository's own copathd; then one run of the perfbench
binary drives a fresh copathd over loopback. The result line is also
written, with the run's metadata, to <build>/results/ (or --out DIR), where
perfbench/compare.py reads result sets from.
"""

import argparse
import datetime
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, log, timeout):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        try:
            p = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                               timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"timed out: {' '.join(cmd)}")
    if p.returncode != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        fail(f"build step failed: {' '.join(cmd)}")


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "perfbench-build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    run_checked(["cmake", "--build", build_dir, "-j", jobs, "--target",
                 "perfbench", "perfbench_selftest"], log, BUILD_TIMEOUT_S)


def git_state(root):
    """(sha, dirty) of the checkout, or ("unknown", None) outside git."""
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
        if sha.returncode != 0:
            return "unknown", None
        st = subprocess.run(["git", "-C", root, "status", "--porcelain",
                             "--untracked-files=no"],
                            capture_output=True, text=True, timeout=10,
                            env=env)
        return sha.stdout.strip(), bool(st.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result directory (default <build>/results)")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own checks")
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build(build_dir)

    if args.selftest:
        p = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                           timeout=RUN_TIMEOUT_S)
        sys.exit(p.returncode)
    if not args.workload:
        fail("--workload is required")

    out_dir = os.path.abspath(args.out or os.path.join(build_dir, "results"))
    os.makedirs(out_dir, exist_ok=True)
    # Cache directories a killed run could not remove; runs are sequential.
    tmp_dir = os.path.join(build_dir, "tmp")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp_dir]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, stem + ".spans.csv")]
    # A process group of its own, so a timeout can take all of it down;
    # the daemon also dies with its parent (PR_SET_PDEATHSIG).
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        fail("run timed out")
    if proc.returncode != 0:
        fail(f"run failed (exit {proc.returncode})")

    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("run printed no result")
    info = {}
    for line in lines[:-1]:
        key, _, value = line.partition(" ")
        info[key] = value
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")

    sha, dirty = git_state(root)
    meta = {
        "git_sha": sha,
        "git_dirty": dirty,
        "build": info.get("build", "unknown"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stream_hash": info.get("stream_hash", "unknown"),
        "copathd_flags": info.get("copathd_flags", "unknown"),
    }
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump({"meta": meta, "result": result}, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
