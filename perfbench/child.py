"""One measured pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <trace 0|1>

Protocol, one line each way, so the parent times set-up and the pass
from outside:

    child  -> parent   "ready"          hypervol imported, inputs generated
    parent -> child    "go" or "quit"
    child  -> parent   one JSON object  per call: output, latency, CPU time,
                                        page faults, and the calibration
                                        kernel's time with its reference;
                                        then peak RSS, references,
                                        per-layer trace

The calibration kernel (calibration.py) runs in a process of its own, so
it adds nothing to the child's peak memory, CPU time or heap.  On a
single-threaded workload the child pins itself to one core, which the
kernel's process inherits, and has the kernel timed between calls,
outside their timed region.  The sweep's pool uses every core, so there
the kernel is timed every SAMPLE_PERIOD_S seconds during the call, beside
the pool.  References are computed after the timed calls and after peak
RSS is read.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import calibration
import workloads

HERE = Path(__file__).resolve().parent
SAMPLE_PERIOD_S = 1.0


def _cli(hypervol, argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = hypervol.cli.main(argv)
        return {"code": code, "stdout": buf.getvalue()}
    return run


def sweep_calls(hypervol, ts):
    argv = ["sweep", "--n-list", ",".join(map(str, workloads.SWEEP_NS)),
            "--t-list", ",".join(map(repr, ts))]
    return [_cli(hypervol, argv)]


def ideal_calls(hypervol, ns):
    def volume(n):
        def run():
            try:
                est = hypervol.volume_projective(hypervol.SimplexParams(n, math.pi / 2))
            except hypervol.ConvergenceError as exc:
                sys.stderr.write(f"n={n}: {exc}\n")
                return {"returned": False}
            return {"returned": True, "value": est.value, "error": est.error_estimate}
        return run
    return [volume(n) for n in ns]


def forms_calls(hypervol, points):
    return [_cli(hypervol, ["volume", "--n", str(n), "--t", repr(t), "--method", "all"])
            for n, t in points]


CALLS = {"sweep": sweep_calls, "ideal": ideal_calls, "forms": forms_calls}


def timed(call) -> dict:
    """Run one user-visible call.  An exception other than the program's
    documented exit paths is reported on stderr and counted as failed."""
    usage0, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    try:
        item = call()
    except Exception:
        traceback.print_exc()
        item = {"code": -1, "returned": False}
    latency = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    item.update(
        latency_s=latency,
        cpu_s=usage.ru_utime - usage0.ru_utime + usage.ru_stime - usage0.ru_stime,
        sys_s=usage.ru_stime - usage0.ru_stime,
        minor_faults=usage.ru_minflt - usage0.ru_minflt,
    )
    return item


class Kernel:
    """The calibration kernel in a process of its own."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibration.py")],
                                     text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def seconds(self, clock: str = "wall") -> float:
        self.proc.stdin.write(clock + "\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def sampled(kernel, call) -> tuple[dict, list[float]]:
    """`timed` ``call`` while the kernel's CPU time is taken at its start and
    then every SAMPLE_PERIOD_S seconds until it returns."""
    samples, done = [], threading.Event()

    def sample():
        samples.append(kernel.seconds("cpu"))
        while not done.wait(SAMPLE_PERIOD_S):
            samples.append(kernel.seconds("cpu"))

    thread = threading.Thread(target=sample)
    thread.start()
    try:
        item = timed(call)
    finally:
        done.set()
        thread.join()
    return item, samples


def calibrated_calls(workload, calls) -> list[dict]:
    """Every call `timed`, each with the kernel seconds measured around or
    beside it ("cal_s") and the kernel's reference seconds ("ref_s")."""
    serial = workload in workloads.SERIAL
    if serial:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    kernel = Kernel()
    try:
        items = []
        if serial:
            samples = [kernel.seconds()]
            for call in calls:
                items.append(timed(call))
                samples.append(kernel.seconds())
            for item, before, after in zip(items, samples, samples[1:]):
                item.update(cal_s=(before + after) / 2, ref_s=calibration.REFERENCE_S)
        else:
            for call in calls:
                item, samples = sampled(kernel, call)
                item.update(cal_s=statistics.mean(samples),
                            ref_s=calibration.REFERENCE_BESIDE_POOL_S)
                items.append(item)
        return items
    finally:
        kernel.close()


def peak_rss_kb() -> int:
    """This interpreter's peak resident memory.  Not ru_maxrss: on Linux
    that carries the parent's peak across fork and exec."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


def ideal_references(hypervol, ns):
    refs = {}
    for n in ns:
        if n == 3:
            continue   # checked against the closed-form ideal tetrahedron
        params = hypervol.SimplexParams(n, math.pi / 2)
        try:
            est = hypervol.volume_orthoscheme(params)
        except hypervol.ConvergenceError as exc:
            est = exc.estimate
        refs[str(n)] = {"value": est.value, "error": est.error_estimate}
    return refs


def main(argv) -> int:
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    proto = sys.stdout
    import hypervol
    import hypervol.cli

    inputs = workloads.inputs(workload, seed)
    calls = CALLS[workload](hypervol, inputs)
    proto.write("ready\n")
    proto.flush()
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        items = calibrated_calls(workload, calls)
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "items": items,
        "peak_rss_kb": peak_rss_kb(),
    }
    if workload == "ideal":
        result["refs"] = ideal_references(hypervol, inputs)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
