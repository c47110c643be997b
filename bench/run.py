"""Benchmark of the supertorus action evaluations.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N --seconds S      # every workload, as a table

One caller, one process, one thread, in a closed loop: each evaluation
builds a fresh conformal frame and evaluates the workload's action, and the
next one starts when it returns.  Every evaluation is checked against the
reference committed for the seed (``bench/reference``) to 1e-12 absolute per
monomial; for a seed without one it is checked against the untimed warm-up
evaluation.  End-to-end times are scaled by a speed probe timed after each
evaluation (see ``PROBE_REF_S``).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it gives the sample count, the
tail percentile, the raw times and whether a reference was used.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
_PROCESS_START = time.perf_counter()  # before the imports set-up pays for
import numpy as np  # noqa: E402
# importing workloads imports supertorus from the repository's src/; without
# it the driver stops here with an ImportError and prints no result
from workloads import (  # noqa: E402
    TOLERANCE, WORKLOADS, Workload, deviation, encode, reference_path)
from tracer import PER_LAYER_METRICS, Tracer, patched  # noqa: E402

WORKLOAD_NAMES = tuple(WORKLOADS)
# a cold set-up in a fresh interpreter, measured as this process measures its own
COLD_SET_UP = "import run; print(run.cold_set_up({workload!r}, {seed})[-1])"
SETUP_SAMPLES = 5  # this process and four fresh interpreters
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

# The speed of a shared machine drifts by 20-50 % over minutes, which no run
# length averages away.  A fixed numpy kernel that never touches supertorus,
# shaped like the workload's grid work (FFTs on a spectral grid, rolls on an
# fd4 grid, on arrays of the grid's size), is timed after every evaluation.
# Each evaluation time is scaled to a machine on which that kernel takes
# PROBE_REF_S[workload], by the median of the probe just before, just after
# and next after it, so that a slow spell of the machine is divided out where
# it happens; raw times are printed beside the scaled ones.
PROBE_REF_S = {"action-n32-eps": 5e-4, "action-n256-eps": 1.2e-3, "torsion-fd4-n128": 2e-4}
PROBE_WINDOW = 1
PROBE_FFT, PROBE_ROLL = np.fft.fft, np.roll  # bound before the traced run wraps them


def fresh_set_ups(workload: str, seed: int, count: int):
    """Seconds of ``cold_set_up`` in ``count`` fresh interpreters, one after
    another."""
    code = COLD_SET_UP.format(workload=workload, seed=seed)
    return [float(subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                                 text=True, check=True, timeout=60).stdout.split()[-1])
            for _ in range(count)]


def load_reference(workload: str, seed: int):
    """The committed reference output for ``seed``, or None if there is none."""
    return json.loads(reference_path(workload).read_text())["seeds"].get(str(seed))


def set_up(workload: str, seed: int):
    """Build the inputs, load the reference and run the warm-up evaluation.

    Returns the workload, the expected output, and whether that expectation
    is the committed reference (True) or the warm-up evaluation (False).
    """
    w = Workload(workload, seed)
    reference = load_reference(workload, seed)
    try:
        warm = encode(w.evaluate())
    except Exception:  # counted as failures by the timed evaluations
        traceback.print_exc(file=sys.stderr)
        warm = None
    if reference is not None:
        return w, reference, True
    return w, warm, False


def cold_set_up(workload: str, seed: int):
    """``set_up`` as the first work of this process.

    Returns ``set_up``'s three results and the seconds from the first line
    of this module (before numpy and the program are imported) to the end
    of the warm-up evaluation.
    """
    w, expected, referenced = set_up(workload, seed)
    return w, expected, referenced, time.perf_counter() - _PROCESS_START


def scaled(samples, probes, ref_s: float, half: int = PROBE_WINDOW):
    """Scale each sample by ``ref_s`` over the median of the probes taken
    within ``half`` iterations of it."""
    return [t * ref_s / statistics.median(probes[max(0, i - half):i + half + 1])
            for i, t in enumerate(samples)]


def make_probe(spec):
    """The speed probe of a workload: a function returning the seconds taken
    by multiply-add with FFTs (spectral grid) or rolls (fd4 grid) on arrays
    of the grid's size, over about 30 000 elements and at least one round."""
    n = spec.n
    rounds = max(1, round(30 * 32 * 32 / (n * n)))
    rng = np.random.default_rng(0)
    if spec.mode == "fd4":
        a = rng.random((n, n))

        def kernel():
            PROBE_ROLL(a, 1, axis=0) * a + PROBE_ROLL(a, -1, axis=1)
    else:
        a = rng.random((n, n)) + 1j * rng.random((n, n))

        def kernel():
            PROBE_FFT(a * a + a, axis=0)

    def probe() -> float:
        t0 = time.perf_counter()
        for _ in range(rounds):
            kernel()
        return time.perf_counter() - t0

    return probe


def timed_loop(w, expected, seconds: float):
    """Evaluate until ``seconds`` have passed, checking the output and
    probing the speed after each evaluation; return samples, probe samples,
    failures and the wall time spent outside the checks and probes."""
    samples, probes, failed, reported, checking = [], [], 0, False, 0.0
    probe = make_probe(w.spec)
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        t0 = time.perf_counter()
        try:
            out = w.evaluate()
        except Exception:  # AliasingDetected included: a failure, never a skip
            out = None
            if not reported:
                traceback.print_exc(file=sys.stderr)
                reported = True
        t1 = time.perf_counter()
        samples.append(t1 - t0)
        if out is None or expected is None:
            failed += 1
        else:
            worst = deviation(encode(out), expected)
            if worst > TOLERANCE:
                failed += 1
                if not reported:
                    print(f"output deviates from the expected one by {worst:.3e}",
                          file=sys.stderr)
                    reported = True
        checking += time.perf_counter() - t1
        probes.append(probe())
        if t1 >= deadline:
            break
    return samples, probes, failed, time.perf_counter() - start - checking - sum(probes)


def tail(samples):
    """Highest nearest-rank percentile with ``TAIL_BEYOND`` samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, TAIL_BEYOND


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    w, expected, referenced, own_set_up = cold_set_up(workload, seed)
    ref_s = PROBE_REF_S[workload]

    if not trace:
        samples, probes, failed, busy = timed_loop(w, expected, seconds)
        attempted = len(samples)
        set_ups = [own_set_up, *fresh_set_ups(workload, seed, SETUP_SAMPLES - 1)]
        raw = {"eval_s_p50": statistics.median(samples), "eval_s_tail": tail(samples)[0],
               "evals_per_s": attempted / busy,
               "setup_s": statistics.median(set_ups)}
        at_ref = scaled(samples, probes, ref_s)
        tail_s, tail_pct, beyond = tail(at_ref)
        scale = sum(at_ref) / sum(samples)
        metrics = {
            "eval_s_p50": (statistics.median(at_ref), "s"),
            "eval_s_tail": (tail_s, "s"),
            "evals_per_s": (raw["evals_per_s"] / scale, "1/s"),
            "setup_s": (raw["setup_s"] * scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "fraction"),
        }
        detail = {"samples": attempted, "tail_percentile": tail_pct,
                  "tail_beyond": beyond, "probe_s_p50": statistics.median(probes),
                  "scale": scale, "raw": raw}
    else:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        plain, plain_probes, failed_plain, _ = timed_loop(w, expected, seconds / 2)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        tracer = Tracer()
        with patched(tracer):
            traced, traced_probes, failed_traced, _ = timed_loop(w, expected, seconds / 2)
        attempted = len(plain) + len(traced)
        failed = failed_plain + failed_traced
        metrics = {name: (tracer.metric(name, len(traced)),
                          "calls/eval" if name.endswith(".calls") else "s/eval")
                   for name in PER_LAYER_METRICS}
        metrics["process.minor_faults"] = (faults / len(plain), "faults/eval")
        metrics["trace_overhead"] = (
            statistics.median(scaled(traced, traced_probes, ref_s))
            - statistics.median(scaled(plain, plain_probes, ref_s)), "s")
        detail = {"samples": len(plain), "traced_samples": len(traced)}

    detail.update(workload=workload, seed=seed, failed_frac=failed / attempted,
                  reference="committed" if referenced else "warm-up (no reference for this seed)")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and print each metric by name."""
    ok = True
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{workload}: failed with exit code {proc.returncode}")
            ok = False
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok &= result["correct"]
        print(f"{workload}  seed={seed}  attempted={result['attempted']}  "
              f"failed={result['failed']}  failed_frac={detail['failed_frac']:g}  "
              f"reference={detail['reference']}")
        if "tail_percentile" in detail:
            print(f"  eval_s_tail is p{detail['tail_percentile']:.2f} of "
                  f"{detail['samples']} samples; times scaled by {detail['scale']:.4g} "
                  f"(speed probe {detail['probe_s_p50']:.4g} s); raw {detail['raw']}")
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; omit to run them all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
