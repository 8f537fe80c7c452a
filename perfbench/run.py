#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
library sources under src/) into the build directory, runs one workload and
prints its report. The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). A traced run also writes its spans to
<build>/traces/<workload>-<seed>.json.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the repository root. The exit code is nonzero when the build
fails, the benchmark finds a FUSE contract violation, or the report is
malformed.

--selfcheck runs the benchmark's own checks: the contract checker must
reject synthetic duplicate, missing, spurious and partial notifications; the
simulator workloads' sim-time results must repeat exactly for a seed; and
sim_overlay_churn must give the same sim-time results on 1 and 2 threads.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
HUGE_PAGES = "glibc.malloc.hugetlb=1"


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds fusebench; returns its path, or None."""
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "fusebench", "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "fusebench")


def stop_group(proc):
    """Kills whatever is left of fusebench's process group and waits until
    every process in it has ended (worker processes are grandchildren)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def bench_env():
    """fusebench's environment: glibc malloc backs the heap with transparent
    huge pages. With 4 KiB pages, sim_overlay_churn ran about a fifth slower
    on a shared virtual machine and its run time varied twice as much
    between runs (perfbench/README.md, "Steadiness")."""
    env = dict(os.environ)
    tunables = [t for t in env.get("GLIBC_TUNABLES", "").split(":") if t]
    env["GLIBC_TUNABLES"] = ":".join(tunables + [HUGE_PAGES])
    return env


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs fusebench in its own process group; returns (rc, stdout)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=bench_env())
    try:
        out, _ = proc.communicate(timeout=timeout)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: fusebench timed out", file=sys.stderr)
        out, rc = "", 124
    stop_group(proc)
    return rc, out


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(a):
    binary = build()
    if binary is None:
        return 1
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(traces, f"{a.workload}-{a.seed}.json")]
    rc, out = run_binary(binary, args)
    lines = out.rstrip("\n").splitlines()
    if not lines:
        print("perfbench: fusebench printed nothing", file=sys.stderr)
        return rc or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: last line is not JSON", file=sys.stderr)
        return rc or 1
    want = metric_names(a.trace)
    got = set(result.get("metrics", {}))
    keys_ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    if not keys_ok or got != want:
        print(f"perfbench: malformed result; missing {sorted(want - got)}, "
              f"unexpected {sorted(got - want)}", file=sys.stderr)
        return rc or 1
    print("\n".join(lines))
    sys.stdout.flush()
    return rc


def simdigest(binary, workload, seed, seconds, extra):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    rc, out = run_binary(binary, args + extra)
    digest = [l for l in out.splitlines() if l.startswith("simdigest:")]
    return rc, digest[0] if digest else None


def selfcheck():
    binary = build()
    if binary is None:
        return 1
    ok = True
    rc, out = run_binary(binary, ["--contract-selftest"])
    print(out.strip())
    ok &= rc == 0
    # (workload, --seconds, extra args of the first run, of the second run);
    # 8 seconds gives sim_groups_service two rounds.
    checks = [
        ("sim_groups_service", 8, [], []),
        ("sim_overlay_churn", 2, [], []),
        ("sim_overlay_churn", 2, ["--threads", "1"], ["--threads", "2"]),
    ]
    for workload, seconds, first, second in checks:
        rc1, d1 = simdigest(binary, workload, 7, seconds, first)
        rc2, d2 = simdigest(binary, workload, 7, seconds, second)
        same = d1 is not None and d1 == d2 and rc1 == 0 and rc2 == 0
        ok &= same
        print(f"{'ok' if same else 'FAILED'}: {workload} {' '.join(first) or 'default'} vs "
              f"{' '.join(second) or 'default'}: sim-time results "
              f"{'identical' if same else 'differ'}\n  {d1}\n  {d2}")
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--selfcheck", action="store_true")
    a = p.parse_args()
    if a.selfcheck:
        return selfcheck()
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    return run_workload(a)


if __name__ == "__main__":
    sys.exit(main())
