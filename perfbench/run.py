"""hypervol benchmark: end-to-end metrics, checked outputs, per-layer trace.

    python3 perfbench/run.py --workload sweep|ideal|forms|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.

``--trace 0`` times set-up in children that only set up and quit, then
measures passes, each in a fresh child interpreter, until the next pass
would overrun ``--seconds`` (at least one pass), then reports every
end-to-end metric.  ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics.  Every output is checked.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
list each metric with its unit, the environment, and every result that
failed or was wrong.  Exit code 0 on a completed run, 2 when the run
could not be made (no program to measure, a child that died).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 11         # set-up-only children per run
CHILD_TIMEOUT_S = 170.0

# name, unit, better, bound: must match BENCHMARK.json
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("results_per_s", "1/s", "higher", 0.25),
    ("result_p50_s", "s", "lower", 0.25),
    ("cpu_s_per_result", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("completed_share", "share", "higher", 0.02),
    ("verified_share", "share", "higher", 0.15),
    ("accuracy_digits", "digits", "higher", 0.1),
]

# name, unit, better: must match BENCHMARK.json
PER_LAYER = [
    ("quadrature.level_value.calls", "count", "lower"),
    ("quadrature.level_value.self_s", "s", "lower"),
    ("quadrature.level_value.points", "count", "lower"),
    ("quadrature.level_value.node_ops", "count", "lower"),
    ("quadrature.stack_build.count", "count", "lower"),
    ("quadrature.stack_build.self_s", "s", "lower"),
    ("quadrature.stack_build.levels", "count", "lower"),
    ("quadrature.stack_build.unique_share", "share", "higher"),
    ("quadrature.top_integral.self_s", "s", "lower"),
    ("quadrature.radialpow.calls", "count", "lower"),
    ("quadrature.radialpow.self_s", "s", "lower"),
    ("quadrature.nested.calls", "count", "lower"),
    ("quadrature.nested.self_s", "s", "lower"),
    ("quadrature.nested.n_evals", "count", "lower"),
    ("quadrature.errors", "count", "lower"),
    ("volume_forms.projective.calls", "count", "lower"),
    ("volume_forms.projective.s", "s", "lower"),
    ("volume_forms.facet_projective.calls", "count", "lower"),
    ("volume_forms.facet_projective.s", "s", "lower"),
    ("volume_forms.orthoscheme.calls", "count", "lower"),
    ("volume_forms.orthoscheme.s", "s", "lower"),
    ("volume_forms.halfspace.calls", "count", "lower"),
    ("volume_forms.halfspace.s", "s", "lower"),
    ("volume_forms.halfspace.self_s", "s", "lower"),
    ("volume_forms.n_evals", "count", "lower"),
    ("bounds.growth_ratio.calls", "count", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.cpu_per_wall", "ratio", "higher"),
    ("geometry.self_s", "s", "lower"),
    ("process.minor_faults", "count", "lower"),
    ("process.sys_share", "share", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


class RunError(RuntimeError):
    """The run could not be made; no result is printed."""


# ---------------------------------------------------------------------------
# child passes

def child_env() -> dict:
    """BLAS pinned to one thread; the sweep pool left at its default size."""
    env = dict(os.environ)
    env.pop("HYPERVOL_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload: str, seed: int, traced: bool, go: bool = True) -> dict:
    """Start a child, time it to "ready" (set-up) and, with ``go``, through
    one pass.  Returns {"setup_s", "wall_s", **child result}."""
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), "1" if traced else "0"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        if proc.stdout.readline().strip() != "ready":
            raise RunError(f"{workload} child exited before set-up finished")
        out = {"setup_s": time.perf_counter() - start}
        if not go:
            proc.stdin.write("quit\n")
            proc.stdin.close()
            if proc.wait() != 0:
                raise RunError(f"{workload} child failed to quit cleanly")
            return out
        proc.stdin.write("go\n")
        proc.stdin.flush()
        go_at = time.perf_counter()
        line = proc.stdout.readline()
        out["wall_s"] = time.perf_counter() - go_at
        proc.stdin.close()
        if proc.wait() != 0 or not line:
            raise RunError(f"{workload} child died during the pass")
        return {**out, **json.loads(line)}
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


# ---------------------------------------------------------------------------
# metrics

def timed_setups(workload: str, seed: int) -> list[dict]:
    """SETUP_SAMPLES children that only set up and quit, each with the
    calibration kernel timed in this process either side of it."""
    cal = calibration.Calibration()
    kernel, setups = [cal.seconds()], []
    for _ in range(SETUP_SAMPLES):
        setups.append(run_child(workload, seed, False, go=False))
        kernel.append(cal.seconds())
    for setup, before, after in zip(setups, kernel, kernel[1:]):
        setup.update(cal_s=(before + after) / 2, ref_s=calibration.REFERENCE_S)
    return setups


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def reference_seconds(item, key: str = "latency_s") -> float:
    """A call's latency or CPU time, or a child's set-up time, in reference
    seconds."""
    return item[key] * item["ref_s"] / item["cal_s"]


def call_times(passes, key=reference_seconds) -> list[float]:
    """Latency of each call, the median over the passes that repeat it.

    Not the fastest pass: how many passes fit in a run depends on the
    host's speed, and the minimum of more passes reads lower.
    """
    return [statistics.median(times) for times in
            zip(*([key(item) for item in p["items"]] for p in passes))]


def end_to_end(passes, verdicts, setups) -> dict:
    """Every END_TO_END metric from measured passes, their verdicts and the
    set-up samples; times count in reference seconds."""
    returned = [v for v in verdicts if v.returned]
    right = [v for v in returned if not v.wrong]
    per_pass = max(len(returned), 1) / len(passes)
    times = call_times(passes)
    cpu = statistics.median(sum(reference_seconds(item, "cpu_s") for item in p["items"])
                            for p in passes)
    scored = [v.digits for v in returned if v.digits is not None]
    return {
        "setup_s": statistics.median(reference_seconds(x, "setup_s") for x in setups),
        "results_per_s": len(returned) / len(passes) / sum(times),
        "result_p50_s": quantile(times, 0.5),
        "cpu_s_per_result": cpu / per_pass,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024.0,
        "completed_share": len(returned) / len(verdicts),
        "verified_share": len(right) / len(returned) if returned else 0.0,
        "accuracy_digits": statistics.fmean(scored) if scored else 0.0,
    }


def per_layer(untraced, traced) -> dict:
    """Every PER_LAYER metric from a traced pass and its untraced twin.
    Process counters come from the untraced pass, which the tracer's own
    allocations do not disturb.  The tracing overhead compares calibrated
    call times, so a change of host speed between the two passes does not
    show as overhead."""
    def total(p, key):
        return sum(item[key] for item in p["items"])

    def calls(p):
        return sum(map(reference_seconds, p["items"]))

    out = dict(traced["layers"])
    out["cli.cpu_per_wall"] = total(traced, "cpu_s") / total(traced, "latency_s")
    out["process.minor_faults"] = total(untraced, "minor_faults")
    out["process.sys_share"] = total(untraced, "sys_s") / total(untraced, "cpu_s")
    out["trace.overhead_share"] = calls(traced) / calls(untraced) - 1.0
    return out


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpus = os.cpu_count() or 1
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "HYPERVOL_THREADS": f"unset in children (caller: {os.environ.get('HYPERVOL_THREADS')})",
        "sweep_pool": min(8, cpus),
    }


# ---------------------------------------------------------------------------
# one run

def measure(workload: str, seed: int, seconds: float, trace: bool, oracles):
    inputs_ = workloads.inputs(workload, seed)
    if trace:
        passes = [run_child(workload, seed, False), run_child(workload, seed, True)]
    else:
        start = time.perf_counter()
        setups = timed_setups(workload, seed)
        passes = []
        while True:
            passes.append(run_child(workload, seed, False))
            typical = statistics.median(p["setup_s"] + p["wall_s"] for p in passes)
            if time.perf_counter() - start + typical > seconds:
                break
    verdicts = []
    for p in passes:
        verdicts += workloads.check(workload, inputs_, p, oracles)
    if trace:
        metrics = per_layer(*passes)
        specs = [(n, u) for n, u, _ in PER_LAYER]
    else:
        metrics = end_to_end(passes, verdicts, setups)
        items = [item for p in passes for item in p["items"]]
        kernel = statistics.median(item["cal_s"] for item in items)
        latency = sum(call_times(passes, key=lambda item: item["latency_s"]))
        cpu = statistics.median(sum(item["cpu_s"] for item in p["items"]) for p in passes)
        setup = statistics.median(x["setup_s"] for x in setups)
        print(f"# calibration kernel: median {kernel * 1e3:.4g} ms, "
              f"reference {items[0]['ref_s'] * 1e3:.4g} ms; measured seconds, "
              f"not scaled: latency_sum={latency:.6g} pass_cpu={cpu:.6g} "
              f"setup_s={setup:.6g}")
        specs = [(n, u) for n, u, _, _ in END_TO_END]
    return passes, verdicts, {name: {"value": metrics[name], "unit": unit} for name, unit in specs}


def report(workload, seed, passes, verdicts, metrics) -> dict:
    returned = [v for v in verdicts if v.returned]
    wrong = [v for v in returned if v.wrong]
    failed = [v for v in verdicts if not v.returned]
    broken = [v for v in verdicts if v.broken]
    times = call_times(passes)
    scored = [v.digits for v in returned if v.digits is not None]
    print(f"# workload={workload} seed={seed} passes={len(passes)} "
          f"pass_wall_s={[round(p['wall_s'], 3) for p in passes]}")
    # too few calls per pass for a bounded tail metric: 31 on forms, 2 on
    # ideal, 1 on sweep, so p90 is printed here with its sample count
    print(f"# call latency, median of {len(passes)} passes: n={len(times)} "
          f"p50={quantile(times, 0.5):.4g} s p90={quantile(times, 0.9):.4g} s "
          f"max={max(times):.4g} s")
    print(f"# environment {json.dumps(environment())}")
    print(f"# attempted={len(verdicts)} failed={len(failed)} "
          f"failed_share={len(failed) / len(verdicts):.4g} "
          f"wrong={len(wrong)} wrong_share={len(wrong) / max(len(returned), 1):.4g} "
          f"skipped_forms={sum(v.skipped for v in returned)} broken={len(broken)} "
          f"min_accuracy_digits={min(scored, default=0.0):.4g}")
    # passes repeat the same inputs, so each result is listed once
    for tag, group, reasons in (("FAILED", failed, None), ("WRONG ", wrong, "wrong"),
                                ("BROKEN", broken, "broken")):
        for label in dict.fromkeys(v.label for v in group):
            v = next(v for v in group if v.label == label)
            why = f": {'; '.join(getattr(v, reasons))}" if reasons else ""
            print(f"# {tag} {label}{why}")
    for name, m in metrics.items():
        print(f"{workload:6s} {name:40s} {m['value']:.6g} {m['unit']}")
    return {
        "correct": not broken,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hypervol" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hypervol sources under {ROOT / 'src'}\n")
        return 2
    try:
        oracles = workloads.load_oracles(ROOT)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            passes, verdicts, metrics = measure(name, args.seed, args.seconds,
                                                bool(args.trace), oracles)
            line = report(name, args.seed, passes, verdicts, metrics)
            print(json.dumps(line), flush=True)
    except (RunError, FileNotFoundError, ImportError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
