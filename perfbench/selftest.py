#!/usr/bin/env python3
"""Fast self-test of the compile benchmark.

    python3 perfbench/selftest.py

Runs every workload at shrunken sizes on a fixed seed, plain and traced,
and checks that each metric BENCHMARK.json names is emitted with its unit.
Then checks that the gates fire: an injected simulator mismatch (compile
and service paths), a result that drifts between passes, and a result that
differs from the record of an earlier run all fail the run with a non-zero
exit. Exits non-zero when any check fails.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = ROOT / ".bench_build" / "perfbench" / "selftest-records"
SEED = "7"

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", "1", "--trace", str(trace), "--small",
           "--record-dir", str(RECORDS), *extra]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return r.returncode, result, r.stderr


def metrics_match(result, expected, what):
    got = result["metrics"]
    check(list(got) == [m["name"] for m in expected],
          f"{what}: emits exactly the BENCHMARK.json metrics, in order")
    for m in expected:
        v = got.get(m["name"])
        check(v is not None and v["unit"] == m["unit"] and
              isinstance(v["value"], (int, float)) and
              math.isfinite(v["value"]),
              f"{what}: {m['name']} in {m['unit']}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(RECORDS, ignore_errors=True)

    for w in (x["name"] for x in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            what = f"{w} trace={trace}"
            code, result, err = run(w, trace)
            check(code == 0 and result is not None, f"{what}: exits 0")
            if result is None:
                print(err[-2000:])
                continue
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], f"{what}: result keys")
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1, f"{what}: correct, no failures")
            metrics_match(result, expected, what)
            if trace == 0:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      f"{what}: every end-to-end metric is non-zero")
            else:
                check(result["metrics"]["trace.attributed_pct"]["value"] >= 95,
                      f"{what}: spans attribute >= 95% of compile time")

    for w, inject in (("fit_layered", "mismatch"), ("served_mix", "mismatch"),
                      ("tight_kernels", "drift")):
        for trace in ((0, 1) if inject == "mismatch" else (0,)):
            what = f"{w} trace={trace} --inject {inject}"
            code, result, _ = run(w, trace, "--inject", inject)
            check(code != 0 and result is not None and
                  result["correct"] is False and result["failed"] > 0,
                  f"{what}: gate fires")

    # Cross-run determinism: the first small tight_kernels run above wrote
    # its record; a tampered record must make the next run fail.
    record = RECORDS / f"tight_kernels-seed{SEED}-small.txt"
    check(record.exists(), "determinism record written")
    if record.exists():
        code, result, _ = run("tight_kernels", 0)
        check(code == 0 and result["correct"], "same results as the record")
        record.write_text(record.read_text().replace("cycles=", "cycles=1", 1))
        code, result, _ = run("tight_kernels", 0)
        check(code != 0 and result is not None and not result["correct"],
              "drift from the record fails the run")

    code = subprocess.run([sys.executable, str(HERE / "run.py"),
                           "--workload", "nope", "--seed", "1", "--seconds",
                           "1", "--trace", "0"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    check(code.returncode != 0 and not code.stdout.strip(),
          "bad usage exits non-zero without a result")

    shutil.rmtree(RECORDS, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
