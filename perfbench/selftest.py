#!/usr/bin/env python3
"""Self-test of the benchmark at small sizes (about a minute).

Run from the checkout root:

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  - an untraced run prints every end-to-end metric with its unit, each
    above 0, and a traced run prints every per-layer metric with its
    unit, those of the layers the workload passes through above 0; both
    verify all answers;
  - a run whose expected answer is deliberately corrupted reports
    failed > 0, correct = false, and exits with a non-zero code;
and that run.py fails without printing a result when the engine
sources are absent (a directory holding only the benchmark's files).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics each workload passes through; a traced run must
# report each above 0, so a layer whose source went silent shows.
_CLASS_LAYERS = ("server.protocol_us.%s", "eval.fixpoint_us.%s",
                 "eval.derived_per_answer.%s", "eval.rounds.%s",
                 "eval.bindings.%s")
_COMMON_LAYERS = ["server.session.parse_us", "server.session.render_us",
                  "eval.plan_cache.lookups", "io.bulk_load_us",
                  "storage.snapshot.live_generations_max",
                  "setup.load_s", "setup.warmup_s"]
PASSED_THROUGH = {
    "serve_recursive": _COMMON_LAYERS + [
        m % c for c in ("lookup", "bound", "closure") for m in _CLASS_LAYERS
    ] + ["semopt.optimize_us.university", "setup.optimize_s"],
    # Only update_feed's readers evaluate with two lanes (morsel-parallel
    # execution); serve_recursive runs one lane per query.
    "update_feed": _COMMON_LAYERS + [m % "read" for m in _CLASS_LAYERS] + [
        "exec.morsels.read", "exec.morsel_steals", "storage.snapshot.writes",
        "storage.snapshot.relations_cloned_per_write",
        "storage.snapshot.cow_copy_us_per_batch",
        "storage.snapshot.cow_share_of_write",
        "eval.ivm.maintenance_us_per_batch", "eval.ivm.overdeleted_per_batch",
        "eval.ivm.recounted_per_batch", "eval.ivm.touched",
        "eval.ivm.useful_ratio", "write.outside_ivm_us",
        "setup.materialize_s"],
}


def run(run_py, workload, trace, extra=(), env=None):
    cmd = [sys.executable, run_py, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--small"] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=600, env=env)
    lines = proc.stdout.decode().strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run_py = os.path.join(HERE, "run.py")
    failures = []

    def check(ok, message):
        print("%s  %s" % ("ok  " if ok else "FAIL", message), flush=True)
        if not ok:
            failures.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(run_py, workload, trace)
            label = "%s --trace %d" % (workload, trace)
            check(code == 0 and result is not None, label + ": exit 0 with a result")
            if result is None:
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  label + ": result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, label + ": all answers verified")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, label + ": every %s metric with its unit" % key)
            if trace == 0:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      label + ": end-to-end values above 0")
            else:
                zero = [name for name in PASSED_THROUGH[workload]
                        if result["metrics"].get(name, {}).get("value", 0) <= 0]
                check(not zero, label + ": layers the workload passes "
                      "through read above 0" + (" %s" % zero if zero else ""))
        code, result = run(run_py, workload, 0, ["--corrupt-oracle"])
        check(code != 0 and result is not None and result["failed"] > 0
              and result["correct"] is False,
              workload + ": corrupted expected answer is reported as failed")

    # Without the engine sources the benchmark must fail, printing no result.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    code, result = run(os.path.join(bare, "perfbench", "run.py"),
                       "serve_recursive", 0, env=env)
    check(code != 0 and result is None,
          "without engine sources: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
