"""Checks of the benchmark itself: counts and correctness, never speed.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import PER_LAYER_METRICS, Tracer, patched

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

ALL = set(run.WORKLOAD_NAMES)
ACTION = {"action-n32-eps", "action-n256-eps"}
TORSION = {"torsion-fd4-n128"}

# workloads whose evaluation reaches each traced span; absent elsewhere
REACHES = {
    "grids.mul": ALL, "grids.add": ALL, "grids.init": ALL, "grids.partial": ALL,
    "grids.inv": ALL, "grids.exp": ALL, "grids.integral": ALL,
    "numpy.fft": ACTION, "numpy.fft2": ALL, "numpy.convolve": ALL,
    "numpy.roll": TORSION,
    "grassmann.mul_sign": ALL, "grassmann.element": ALL,
    "geometry.frame": ALL, "geometry.coframe": ALL, "geometry.density": ALL,
    "geometry.connection": ALL, "geometry.sum_fields": ALL,
    "geometry.dirac_apply": ALL, "geometry.curvature_of_torsion": TORSION,
    "fields.gravitino_frame_values": ACTION, "fields.quantize_frame_values": ACTION,
    "functionals.harmonic_density": ALL, "functionals.dirac_density": ALL,
    "functionals.quartic_density": ACTION, "functionals.mixed_density": ACTION,
}


def drive(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(workload, seed, trace, seconds=0.5):
    proc = drive("--workload", workload, "--seed", seed, "--seconds", seconds,
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_names_match_the_driver():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert [m["name"] for m in SPEC["per_layer"]] == [
        *PER_LAYER_METRICS, "process.minor_faults", "trace_overhead"]
    assert {span for span in (m.rsplit(".", 1)[0] for m in PER_LAYER_METRICS)} <= set(REACHES)


def test_mode_tables_follow_the_seed():
    assert workloads.mode_tables(3) == workloads.mode_tables(3)
    assert workloads.mode_tables(3) != workloads.mode_tables(4)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    detail, result = result_of(workload, 0, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["reference"] == "committed"
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_follow_the_layer_map_and_repeat(workload):
    _, first = result_of(workload, 0, 1)
    _, second = result_of(workload, 0, 1)
    assert first["correct"] and second["correct"]
    metrics = first["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for name in PER_LAYER_METRICS:
        reached = workload in REACHES[name.rsplit(".", 1)[0]]
        value = metrics[name]["value"]
        assert (value > 0) if reached else (value == 0), name
    calls = {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}
    assert calls == {k: second["metrics"][k]["value"] for k in calls}
    assert all(v == int(v) for v in calls.values())


def test_every_seed_does_the_same_work():
    _, a = result_of("action-n32-eps", 0, 1)
    _, b = result_of("action-n32-eps", 7, 1)
    calls = [k for k in a["metrics"] if k.endswith(".calls")]
    assert [a["metrics"][k] for k in calls] == [b["metrics"][k] for k in calls]


def test_seed_without_reference_checks_against_the_warm_up():
    detail, result = result_of("action-n32-eps", 10**6, 0)
    assert detail["reference"].startswith("warm-up")
    assert result["correct"] and result["failed"] == 0


def test_reference_mismatch_counts_as_failure():
    w, reference, referenced = run.set_up("action-n32-eps", 0)
    assert referenced
    _, _, failed, _ = run.timed_loop(w, reference, 0.05)
    assert failed == 0
    broken = json.loads(json.dumps(reference))
    slot = broken["mixed_coupling"]["eps"]
    key = next(iter(slot))
    slot[key] += 1e-9
    samples, _, failed, _ = run.timed_loop(w, broken, 0.05)
    assert failed == len(samples) >= 1


def test_the_check_calls_no_traced_layer():
    out = workloads.Workload("action-n32-eps", 0).evaluate()
    tracer = Tracer()
    with patched(tracer):
        encoded = workloads.encode(out)
    assert all(calls == 0 for calls, _, _ in tracer.stats.values())
    assert workloads.deviation(encoded, run.load_reference("action-n32-eps", 0)) <= 1e-12


def test_deviation_reads_missing_monomials_as_zero():
    want = {"t": {"value": {"": 1.0, "0,1": 2e-13}, "eps": {}}}
    assert workloads.deviation({"t": {"value": {"": 1.0}, "eps": {}}}, want) == 2e-13
    assert workloads.deviation({"u": want["t"]}, want) == float("inf")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = drive("--workload", "action-n32-eps", "--seed", 0, "--seconds", 1,
                 "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
