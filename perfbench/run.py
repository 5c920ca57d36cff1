#!/usr/bin/env python3
"""The repository benchmark: build pb_engine from ../src, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (and through it the
libraries under src/) in Release mode into .bench_build/perfbench, then
runs pb_engine repeatedly, each repetition a fresh process on the same
seed, for about --seconds (at least MIN_REPS repetitions, or 2 when the
host is slow). Every
repetition must print the same digest and pass its correctness checks.

With --trace 0 the last stdout line reports the median of every
end-to-end metric named in BENCHMARK.json; with --trace 1 the
repetitions alternate between the timing decorators and none, the traced
digest must equal the untraced one, and the line reports every per-layer
metric. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
ENGINE = os.path.join(BUILD_DIR, "pb_engine")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

MIN_REPS = 3
# On a slow host MIN_REPS may stop short, at no fewer than two, rather than
# run past --seconds by more than this factor.
OVERRUN = 1.2
DEADLINE_S = 170  # the whole run, build excluded, ends before 180 s

# The end-to-end times are host-scaled: each repetition's time is
# multiplied by PROBE_REF_S over the time the host-speed probe took in
# that repetition (pb_engine's host.probe_s), so they read as seconds on
# a host where the probe takes PROBE_REF_S. See README.md.
PROBE_REF_S = 0.22
HOST_SCALED = {"setup_s", "run_s", "cpu_s"}
# Per-layer wall-clock twins of the host-scaled times, unscaled.
WALL = {"wall.setup_s": "setup_s", "wall.run_s": "run_s",
        "wall.cpu_s": "cpu_s"}

# Per-layer metrics measured only through the timing decorators.
TRACED_ONLY = {"net.delay_calls", "net.delay_s", "apps.upcall_calls",
               "apps.upcall_self_s"}

_child = None  # the running child, stopped with its process group


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(1)


def _stop_child():
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()


def _on_signal(signum, frame):
    _stop_child()
    sys.exit(128 + signum)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if wait_child(cmd, stdout=sys.stderr, stderr=sys.stderr)[0]:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", "3"]
    if wait_child(cmd, stdout=sys.stderr, stderr=sys.stderr)[0]:
        fail("build failed")


def source_sha():
    """Digest of the sources the engine is built from (the checkout is
    not always a git repository, so this stands in for the git sha)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            # Bytecode caches carry source mtimes; hash sources only.
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(f for f in filenames
                               if not f.endswith(".pyc")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def wait_child(cmd, timeout=None, **kw):
    """Run one child, in a process group of its own, to completion. A
    timeout, SIGINT or SIGTERM stops the whole group (a build's compilers
    too)."""
    global _child
    _child = subprocess.Popen(cmd, text=True, start_new_session=True, **kw)
    try:
        out, err = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop_child()
        fail(f"{cmd[0]}: exceeded the time limit")
    finally:
        code = _child.returncode
        _child = None
    return code, out, err


def run_rep(workload, seed, traced, scale, timeout):
    """One pb_engine process; returns its parsed result line."""
    cmd = [ENGINE, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--scale", scale]
    code, out, err = wait_child(cmd, timeout=max(1.0, timeout),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
    lines = out.strip().splitlines()
    if code not in (0, 1) or not lines:
        fail(f"{workload}: pb_engine exited {code}: {err.strip()}")
    rep = json.loads(lines[-1])
    rep["exit_code"] = code
    return rep


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long inputs, for perfbench/tests.py")
    args = ap.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    build()

    start = time.monotonic()
    reps = []
    took = []  # wall seconds per repetition, process start to exit
    traced = bool(args.trace)
    while True:
        elapsed = time.monotonic() - start
        # Start another repetition only if it is expected to end within
        # --seconds, so that a run measures for about --seconds.
        expected_end = elapsed + median(took)
        if len(reps) >= MIN_REPS and expected_end > args.seconds:
            break
        if len(reps) >= 2 and (expected_end > OVERRUN * args.seconds
                               or elapsed >= DEADLINE_S / 2):
            break
        # Traced runs alternate decorated and bare repetitions, starting
        # with a decorated one.
        rep_traced = traced and len(reps) % 2 == 0
        reps.append(run_rep(args.workload, args.seed, rep_traced, args.scale,
                            DEADLINE_S - elapsed))
        took.append(time.monotonic() - start - elapsed)
    if traced and len(reps) % 2 == 1:
        reps.append(run_rep(args.workload, args.seed, False, args.scale,
                            DEADLINE_S - (time.monotonic() - start)))

    first = reps[0]
    host = dict(first["host"])
    host["git_sha"] = git_sha() or "none (not a git checkout)"
    host["source_sha"] = source_sha()
    log("host: " + json.dumps(host, sort_keys=True))
    if host["build_type"] != "Release":
        for stream in (sys.stdout, sys.stderr):
            print("WARNING: NON-RELEASE BUILD (%s): timings are not "
                  "comparable" % host["build_type"], file=stream, flush=True)

    # --- Correctness: every repetition checks itself; all must agree. ---
    problems = []
    for i, r in enumerate(reps):
        kind = "traced" if r["traced"] else "untraced"
        log(f"rep {i} {kind}: digest {r['digest']} "
            f"run_s {r['metrics']['run_s']:.3f} "
            f"setup_s {r['metrics']['setup_s']:.4f} "
            f"probe_s {r['metrics']['host.probe_s']:.4f}")
        problems += [f"rep {i}: {v}" for v in r["violations"]]
        if r["exit_code"] != 0 and not r["violations"]:
            problems.append(f"rep {i}: pb_engine exited {r['exit_code']}")
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        problems.append("digests differ across repetitions of one seed"
                        + (" (traced vs untraced)" if traced else "")
                        + ": " + ", ".join(sorted(digests)))
    if len({(r["attempted"], r["failed"]) for r in reps}) != 1:
        problems.append("attempted/failed differ across repetitions")
    log(f"run digest {first['digest']} "
        f"(workload {args.workload}, seed {args.seed}, {len(reps)} reps)")

    # --- Metrics: medians over repetitions --------------------------------
    bare = [r for r in reps if not r["traced"]]
    decorated = [r for r in reps if r["traced"]]

    def rep_value(r, name):
        m = r["metrics"]
        if name in HOST_SCALED:
            return m[name] * PROBE_REF_S / m["host.probe_s"]
        return m[WALL.get(name, name)]

    def med(name, pool):
        values = [rep_value(r, name) for r in pool
                  if WALL.get(name, name) in r["metrics"]]
        if not values:
            problems.append(f"metric {name} not measured")
        return median(values)

    metrics = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        name = m["name"]
        if not traced:
            value = med(name, reps)
        elif name == "tracing.overhead_s":
            value = med("wall.run_s", decorated) - med("wall.run_s", bare)
        else:
            value = med(name, decorated if name in TRACED_ONLY else bare)
        metrics[name] = {"value": value, "unit": m["unit"]}
        if traced and name in first["absent"]:
            log(f"absent: {name} (reported as 0): {first['absent'][name]}")
    for p in problems:
        log("VIOLATION: " + p)

    result = {"correct": not problems, "attempted": first["attempted"],
              "failed": first["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
