#!/usr/bin/env python3
"""Self-test of bpsim's benchmark at reduced op counts.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced through run.py at a
few thousand ops per stand-in and checks that:

  * the result line has exactly the keys correct/attempted/failed/
    metrics, and the run passed;
  * every printed metric is declared in BENCHMARK.json with the same
    unit, and every declared metric is printed (end_to_end metrics
    untraced, per_layer metrics traced);
  * every name matches [A-Za-z0-9_.-]+ and is declared once;
  * every metric named in perfbench/layers.json is declared;
  * the digest gate works: a run checked against digests it wrote
    itself passes, and the same run against one altered digest exits
    non-zero with "correct": false.

Exits non-zero on the first failure.
"""

import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SMALL = ["--ops", "3000", "--seconds", "0"]


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), *SMALL, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} trace={trace}: no output\n{proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-1]), proc.stderr


def declared(spec, section):
    out = {}
    for m in spec[section]:
        name = m["name"]
        if not NAME.match(name) or len(name) > 64:
            fail(f"bad metric name {name!r}")
        if name in out:
            fail(f"metric {name} declared twice")
        out[name] = m["unit"]
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = declared(spec, "end_to_end")
    layer = declared(spec, "per_layer")
    if set(e2e) & set(layer):
        fail(f"names in both sections: {sorted(set(e2e) & set(layer))}")
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        if not NAME.match(w):
            fail(f"bad workload name {w!r}")

    meta = json.loads((HERE / "layers.json").read_text())
    for row in meta["moves"]:
        for name in [row["layer_metric"], row["end_to_end"]]:
            base = name.split("<")[0].rstrip(".")
            if name not in layer and name not in e2e and not any(
                    n.startswith(base + ".") for n in layer):
                fail(f"layers.json names undeclared metric {name}")
        for w in row["workloads"]:
            if w not in workloads:
                fail(f"layers.json names unknown workload {w}")

    for w in workloads:
        for trace, want in ((0, e2e), (1, layer)):
            code, res, err = run(w, 7, trace)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w} trace={trace}: result keys {sorted(res)}")
            if code != 0 or not res["correct"] or res["failed"]:
                fail(f"{w} trace={trace}: run failed\n{err[-2000:]}")
            got = res["metrics"]
            for name, m in got.items():
                if not NAME.match(name):
                    fail(f"{w}: printed name {name!r} is malformed")
                if name not in want:
                    fail(f"{w} trace={trace}: {name} is not declared")
                if m["unit"] != want[name]:
                    fail(f"{w}: {name} unit {m['unit']} != {want[name]}")
            missing = sorted(set(want) - set(got))
            if missing:
                fail(f"{w} trace={trace}: not printed: {missing}")
            print(f"selftest: {w} trace={trace}: {len(got)} metrics ok")

    # The digest gate, on the smallest grid.
    golden = ROOT / ".bench_build" / "perfbench" / "selftest_golden.tsv"
    golden.parent.mkdir(parents=True, exist_ok=True)
    golden.unlink(missing_ok=True)
    code, res, err = run("timing_grid", 42, 0, "--write-golden",
                         str(golden))
    if code != 0:
        fail(f"writing digests failed\n{err[-2000:]}")
    code, res, err = run("timing_grid", 42, 0, "--golden", str(golden))
    if code != 0 or not res["correct"]:
        fail(f"run against its own digests failed\n{err[-2000:]}")
    lines = golden.read_text().splitlines()
    cols = lines[0].split("\t")
    cols[-1] = "0" * 16 if cols[-1] != "0" * 16 else "1" * 16
    golden.write_text("\n".join(["\t".join(cols)] + lines[1:]) + "\n")
    code, res, err = run("timing_grid", 42, 0, "--golden", str(golden))
    if code == 0 or res["correct"] or res["failed"] < 1:
        fail("an altered digest did not fail the run")
    golden.unlink()
    print("selftest: digest gate ok")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
