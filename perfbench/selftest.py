#!/usr/bin/env python3
"""Self-test of the repository benchmark (perfbench/README.md).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Builds the benchmark binary and
run_experiments into .bench_build/, then at a tiny scale checks, for
every workload: the output check (determinism, forced mismatches), the
seed remap (seed 0 reproduces run_experiments --deterministic-json, a
second seed changes the digest), the traced mode and the probe phase
(every per-layer metric of BENCHMARK.json is emitted, the probe's own
checks hold, and the layer-sum check reports a forced miss).  Finally it
checks that the committed seed-0 digests equal run_experiments at the
benchmark's own settings.
Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = "0.004"


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def run_experiments_digest(summary):
    """Digest of run_experiments --deterministic-json at the suite
    settings a perfbench run summary reports."""
    args = ["--suite", summary["suite"], "--scale", repr(summary["scale"])]
    if "tenants" in summary:
        args += ["--tenants", str(summary["tenants"]),
                 "--churn", str(summary["churn"])]
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        subprocess.run(
            [os.path.join(run.BUILD, "repo", "tools", "run_experiments"),
             *args, "--jobs", "4", "--json", tmp, "--deterministic-json"],
            check=True, stdout=subprocess.DEVNULL)
        (bench,) = [f for f in os.listdir(tmp) if f.startswith("BENCH_")]
        out = subprocess.run([run.BINARY, "--mode", "digest", "--file",
                              os.path.join(tmp, bench)],
                             check=True, capture_output=True, text=True)
    return json.loads(out.stdout)["digest"]


def check_layer_sum(workload, probe):
    """The layer-sum check on a tiny probe: its inputs are the emitted
    metrics, a layer sum equal to the cell passes, and a forced miss
    fails the traced run.  (At this size one repetition is noise-bound,
    so the probe's own sums are not held to the tolerance here.)"""
    sums = probe["layer_sum"]
    metrics = probe["metrics"]
    tolerance = run.LAYER_SUM_TOLERANCE[workload]
    cells = sum(s["cell_ns"] for s in sums.values())
    residual = sum(s["cell_ns"] - s["layers_ns"] for s in sums.values())
    check(math.isclose(metrics["sim.unattributed_ns"] / metrics["sim.cell_ns"],
                       residual / cells, rel_tol=1e-9),
          "%s: sim.unattributed_ns is the residual the check sees" % workload)
    exact = {p: {"cell_ns": s["cell_ns"], "layers_ns": s["cell_ns"]}
             for p, s in sums.items()}
    check(run.layer_sum_problems(exact, tolerance) == [],
          "%s: a layer sum equal to its cell passes" % workload)
    within = {"X": {"cell_ns": 10.0, "layers_ns": 10.0 * (
        1 - 0.9 * tolerance)}}
    beyond = {"X": {"cell_ns": 10.0, "layers_ns": 10.0 * (
        1 + 1.1 * tolerance)}}
    check(run.layer_sum_problems(within, tolerance) == [] and
          len(run.layer_sum_problems(beyond, tolerance)) == 1,
          "%s: the check passes inside the tolerance and fails outside"
          % workload)
    forced = dict(probe, problems=[], layer_sum={
        p: {"cell_ns": s["cell_ns"], "layers_ns": 0.0}
        for p, s in sums.items()})
    check(len(run.probe_problems(forced)) == len(sums) > 0,
          "%s: a forced layer-sum miss fails every policy cell" % workload)


def main():
    run.build()
    subprocess.run(["cmake", "--build", run.BUILD, "--target",
                    "run_experiments", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=subprocess.DEVNULL)
    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(sorted(m["name"] for m in spec["end_to_end"]) ==
          sorted(run.END_TO_END), "BENCHMARK.json end_to_end = run.py's")
    per_layer = {m["name"] for m in spec["per_layer"]}
    tiny = ["--scale", TINY]

    for workload in run.WORKLOADS:
        a = run.run_process("run", workload, 0, tiny)
        b = run.run_process("run", workload, 0, tiny)
        check(a["digest"] == b["digest"] and not a["problems"],
              "%s: seed 0 is deterministic and passes the record checks"
              % workload)
        check(a["digest"] == run_experiments_digest(a),
              "%s: seed 0 reproduces run_experiments" % workload)
        other = run.run_process("run", workload, 1, tiny)
        check(other["digest"] != a["digest"],
              "%s: seed 1 changes the digest" % workload)

        table = {workload: {"seeds": {"0": a["digest"]},
                            "records": a["record_digests"]}}
        check(run.check_outputs(workload, 0, [a, b], table)[1:] == (0, []),
              "%s: matching digests pass" % workload)
        key = sorted(a["record_digests"])[0]
        broken = json.loads(json.dumps(table))
        broken[workload]["records"][key] = "0" * 16
        broken[workload]["seeds"]["0"] = "0" * 16
        attempted, failed, _ = run.check_outputs(workload, 0, [a], broken)
        check(failed == attempted == a["records"],
              "%s: a committed-digest mismatch fails the run" % workload)
        broken[workload]["seeds"]["0"] = a["digest"]
        check(run.check_outputs(workload, 0, [a], broken)[1] == 1,
              "%s: one mismatching record counts once" % workload)
        check(run.check_outputs(workload, 1, [other, a], {})[1] ==
              a["records"], "%s: digests must agree across runs" % workload)

        traced = run.run_process("trace", workload, 0, tiny)
        check(traced["digest"] == a["digest"] and
              all(name in traced for name in run.RUNNER_LAYER) and
              0 < traced["runner.worker_busy_frac"] <= 1,
              "%s: traced run keeps the outputs and emits runner spans"
              % workload)

        probe = run.run_process("probe", workload, 0, tiny)
        emitted = set(probe["metrics"]) | set(run.RUNNER_LAYER) | {
            "runner.records", "runner.trace_overhead_s"}
        check(emitted == per_layer,
              "%s: probe + traced run emit exactly BENCHMARK.json's "
              "per_layer metrics" % workload)
        check(all(math.isfinite(v) for v in probe["metrics"].values()),
              "%s: probe metrics are finite" % workload)
        check(not probe["problems"],
              "%s: probe replay/lockstep/stream checks hold %s"
              % (workload, probe["problems"]))
        check_layer_sum(workload, probe)

    digests = run.load_digests()
    for workload in run.WORKLOADS:
        full = run.run_process("run", workload, 0)
        check(digests[workload]["seeds"]["0"] == full["digest"] ==
              run_experiments_digest(full),
              "%s: committed seed-0 digest = run_experiments at scale %g"
              % (workload, full["scale"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
