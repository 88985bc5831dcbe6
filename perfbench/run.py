#!/usr/bin/env python3
"""Build bpsim's benchmark program, bpbench, and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload accuracy_grid \
        [--seed 42] [--seconds 30] [--trace 0|1]

--workload all runs every workload in BENCHMARK.json in turn and
prints one result line per workload, tagged with its name.

The first run configures and builds perfbench/ (the repository's
libraries plus bpbench) into .bench_build/perfbench; later runs
only re-check the build. Every argument is passed to bpbench, so its
other flags (--ops, --golden, --write-golden) work here too. bpbench
prints the result as the last line of standard output and exits
non-zero when a cell fails a check. See perfbench/README.md.
"""

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BPBENCH = BUILD / "bpbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def local_env():
    """The environment for every child: no BPSIM_* knobs, since the
    library reads them and they would change what is measured, and a
    TMPDIR inside the build tree so nothing is written outside the
    checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BPSIM_")}
    env["TMPDIR"] = str(tmp)
    return env


def call(cmd, timeout):
    """Run cmd with its output sent to stderr; True when it succeeds."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=local_env(),
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(map(str, cmd))}")
        return False
    return proc.returncode == 0


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"bpsim sources not found under {ROOT}; run from a checkout")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        if not call(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    return call(["cmake", "--build", BUILD, "--target", "bpbench",
                 "-j", jobs], BUILD_TIMEOUT_S)


def run_bpbench(args, capture=False):
    """Run bpbench; return (exit code, stdout or None)."""
    scratch = BUILD / "run"
    scratch.mkdir(parents=True, exist_ok=True)
    # The caller's flags come last so they override these defaults.
    cmd = [BPBENCH, "--golden", HERE / "golden_seed42.tsv",
           "--scratch", scratch, *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=local_env(), text=True,
                              stdout=subprocess.PIPE if capture else None,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"bpbench exceeded {RUN_TIMEOUT_S} s")
        return 3, None
    return proc.returncode, proc.stdout


def main():
    if not build():
        log("build failed")
        return 2
    args = sys.argv[1:]
    if "--workload" not in args[:-1] or \
            args[args.index("--workload") + 1] != "all":
        return run_bpbench(args)[0]
    # --workload all: every workload in BENCHMARK.json, one result
    # line each, tagged with its workload; fails if any fails.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worst = 0
    for w in spec["workloads"]:
        args[args.index("--workload") + 1] = w["name"]
        code, out = run_bpbench(args, capture=True)
        lines = (out or "").strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        print(json.dumps({"workload": w["name"], **result}), flush=True)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
