"""Self-tests of the benchmark: inputs, checks, tracer wrappers, self-time
arithmetic and the metric names printed against BENCHMARK.json."""

import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- inputs ------------------------------------------------------------------

def test_sweep_seed_zero_is_the_acceptance_grid():
    assert workloads.sweep_inputs(0) == [round(0.05 * k, 10) for k in range(1, 32)]


def test_sweep_jitter_is_seeded_and_bounded():
    grid = workloads.sweep_inputs(0)
    jittered = workloads.sweep_inputs(7)
    assert jittered == workloads.sweep_inputs(7)
    assert jittered != grid
    assert all(abs(a - b) <= 0.01 for a, b in zip(jittered, grid))


def test_forms_points_are_stratified():
    points = workloads.forms_inputs(3)
    assert points == workloads.forms_inputs(3)
    assert len(points) == 31
    for i, n in enumerate(range(2, 13)):
        (n0, lo), (n1, hi) = points[2 * i], points[2 * i + 1]
        assert n0 == n1 == n and 0.05 <= lo < 0.8 <= hi < 1.5
    near = points[22:]
    assert [n for n, _ in near] == [2, 2, 2, 3, 3, 3, 4, 4, 4]
    for (_, t), u in zip(near, [3, 5, 7] * 3):
        assert 10 ** -(u + 0.25) <= math.pi / 2 - t <= 10 ** -(u - 0.25)


def test_ideal_ignores_the_seed():
    assert workloads.ideal_inputs(0) == workloads.ideal_inputs(11) == [3, 5]


# -- checks ------------------------------------------------------------------

class _Oracles:
    IDEAL_TET = 1.0149416064096536

    @staticmethod
    def gauss_bonnet_triangle_area(r):
        theta = 2.0 * math.atan(1.0 / (math.cosh(r) * math.tan(math.pi / 3)))
        return math.pi - 3.0 * theta


def _volume_all(values):
    lines = [f"method={k} value={v!r} error={e!r} n_evals=1" for k, (v, e) in values.items()]
    vals = [v for v, _ in values.values()]
    lines.append(f"max_rel_diff={(max(vals) - min(vals)) / max(vals)!r}")
    return "\n".join(lines) + "\n"


def test_forms_check_separates_wrong_from_broken():
    t = 0.6
    ref = _Oracles.gauss_bonnet_triangle_area(math.atanh(math.sin(t)))
    honest = {"projective": (ref, 1e-12), "orthoscheme": (ref, 1e-12), "halfspace": (ref, 1e-12)}
    dishonest = dict(honest, orthoscheme=(ref * (1 + 1e-6), 1e-12))
    blunder = dict(honest, orthoscheme=(2 * ref, 1e-12))
    items = [{"code": 0, "stdout": _volume_all(v)} for v in (honest, dishonest, blunder)]
    items.append({"code": 2, "stdout": ""})
    verdicts = workloads.check_forms([(2, t)] * 4, {"items": items}, _Oracles)
    ok, wrong, broken, failed = verdicts
    assert ok.returned and not ok.wrong and not ok.broken and ok.digits > 11
    assert wrong.wrong and not wrong.broken
    assert broken.broken
    assert not failed.returned


def test_ideal_check_uses_the_oracle_and_the_orthoscheme_reference():
    ref5 = 0.0575647376851781
    result = {
        "refs": {"5": {"value": ref5, "error": 1e-14}},
        "items": [{"returned": True, "value": _Oracles.IDEAL_TET, "error": 1e-12},
                  {"returned": True, "value": ref5 * (1 + 1e-9), "error": 1e-12}],
    }
    ok, wrong = workloads.check_ideal([3, 5], result, _Oracles)
    assert not ok.wrong and not ok.broken and ok.digits == workloads.DIGITS_CAP
    assert wrong.wrong and not wrong.broken and 8.5 < wrong.digits < 9.5
    result["items"][1] = {"returned": True, "value": 2 * ref5, "error": 1e-12}
    assert workloads.check_ideal([3, 5], result, _Oracles)[1].broken
    result["items"][1] = {"returned": False}
    assert not workloads.check_ideal([3, 5], result, _Oracles)[1].returned


def test_sweep_check_catches_a_flag_that_contradicts_its_row():
    ts = workloads.sweep_inputs(0)[:1]
    header = ",".join(workloads.SWEEP_COLUMNS)
    rows = []
    for n in workloads.SWEEP_NS:
        s = math.sin(ts[0])
        facet = _Oracles.gauss_bonnet_triangle_area(
            math.atanh(s * math.sqrt(8.0) / math.sqrt(9.0 - s * s))) if n == 3 else 0.5
        vol = 0.25 * facet
        rows.append(f"{n},{ts[0]!r},{vol / facet!r},1e-12,0.2,0.3,0,1,{vol!r},{facet!r},ok")
    good = {"items": [{"code": 0, "stdout": "\n".join([header, *rows]) + "\n"}]}
    assert not any(v.broken or v.wrong for v in workloads.check_sweep(ts, good, _Oracles))
    rows[1] = rows[1].replace(",ok", ",violation")
    bad = {"items": [{"code": 0, "stdout": "\n".join([header, *rows]) + "\n"}]}
    assert workloads.check_sweep(ts, bad, _Oracles)[1].broken


# -- tracer ------------------------------------------------------------------

def _bindings():
    import hypervol.cli
    import hypervol.quadrature

    out = {}
    for key, module in sorted(sys.modules.items()):
        if module is not None and (key == "hypervol" or key.startswith("hypervol.")):
            out.update({(key, k): v for k, v in vars(module).items() if callable(v)})
    out.update({("_FORMS", k): v for k, v in hypervol.cli._FORMS.items()})
    out.update({("RadialPowerStack", k): v
                for k, v in vars(hypervol.quadrature.RadialPowerStack).items()})
    return out


def test_wrappers_cover_importers_and_restore_originals():
    import hypervol.cli
    import hypervol.quadrature
    import hypervol.volume_forms

    before = _bindings()
    with tracing.Tracer():
        assert hypervol.volume_forms.integrate_nested is not before[
            ("hypervol.quadrature", "integrate_nested")]
        assert hypervol.cli._FORMS["projective"] is not before[("_FORMS", "projective")]
        assert hypervol.cli.growth_ratio is not before[("hypervol.bounds", "growth_ratio")]
        assert (vars(hypervol.quadrature.RadialPowerStack)["level_value"]
                is not before[("RadialPowerStack", "level_value")])
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced_volume():
    import hypervol

    with tracing.Tracer() as tracer:
        hypervol.volume_projective(hypervol.SimplexParams(3, 0.5))
    return tracer


def test_trace_counts_repeat_and_spans_nest():
    first, second = _traced_volume(), _traced_volume()
    a, b = tracing.layer_metrics(first), tracing.layer_metrics(second)
    counts = [k for k in a if not k.endswith("_s") and not k.endswith(".s")]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["volume_forms.projective.calls"] == 1
    assert a["quadrature.radialpow.calls"] == 1
    assert a["quadrature.stack_build.count"] == 2
    spans = first.spans
    assert spans[0][0] == "volume_forms.projective" and spans[0][2] is None
    assert all(s[1] == 0 for s in spans)          # one request
    assert all(s[2] is not None and s[2] < i for i, s in enumerate(spans) if i)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0, None, 0.0, 10.0],
        ["a", 0, 0, 1.0, 4.0],
        ["a.child", 0, 1, 2.0, 3.0],
        ["b", 0, 0, 3.0, 6.0],          # overlaps a, as on a second pool thread
        ["late", 0, 0, 9.0, 12.0],      # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 1.0, 3.0, 3.0])


def test_worker_thread_spans_take_the_owner_as_parent_and_a_new_request():
    import threading

    clock = iter(range(100)).__next__
    tracer = tracing.Tracer(clock=clock)
    root = tracer.open("cli.cmd_sweep")

    def row():
        tracer.close(tracer.open("cli.sweep_row"))

    worker = threading.Thread(target=row)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.close(root)
    (parent, child) = tracer.spans
    assert child[2] == 0 and child[1] != parent[1]


# -- metric names ------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for name, unit, *_ in e2e + layers:
        assert NAME.match(name) and UNIT.match(unit), name


REF = 0.0025


def _item(latency, cpu=None, cal=REF):
    return {"latency_s": latency, "cpu_s": latency if cpu is None else cpu,
            "sys_s": 0.0, "minor_faults": 1, "cal_s": cal, "ref_s": REF}


def test_printed_metrics_are_exactly_the_declared_ones():
    passes = [{"peak_rss_kb": 1024, "items": [_item(0.5), _item(1.5)]}]
    setups = [{"setup_s": s, "cal_s": REF, "ref_s": REF} for s in (0.1, 0.2, 0.3)]
    verdicts = [workloads.Verdict("a", digits=9.0), workloads.Verdict("b", wrong=["x"])]
    e2e = run.end_to_end(passes, verdicts, setups)
    assert list(e2e) == [name for name, *_ in run.END_TO_END]
    assert e2e["verified_share"] == 0.5
    assert e2e["setup_s"] == pytest.approx(0.2)
    layers = tracing.layer_metrics(tracing.Tracer())
    traced = {"layers": layers, "items": [_item(1.1)]}
    names = set(run.per_layer({"items": [_item(1.0)]}, traced))
    assert names == {name for name, *_ in run.PER_LAYER}


def test_times_are_scaled_by_the_calibration_and_take_the_median_pass():
    ref = REF
    # the second pass ran on a host twice as slow; the third also hit a
    # burst on its second call that the calibration did not see
    passes = [{"peak_rss_kb": 1, "items": [_item(1.0, cal=ref), _item(3.0, cal=ref)]},
              {"peak_rss_kb": 1, "items": [_item(2.0, cal=2 * ref), _item(6.0, cal=2 * ref)]},
              {"peak_rss_kb": 1, "items": [_item(1.0, cal=ref), _item(9.0, cal=ref)]}]
    verdicts = [workloads.Verdict(str(i)) for i in range(6)]
    setups = [{"setup_s": 0.4, "cal_s": 2 * REF, "ref_s": REF}]
    e2e = run.end_to_end(passes, verdicts, setups)
    assert e2e["results_per_s"] == pytest.approx(2 / (1.0 + 3.0))
    assert e2e["cpu_s_per_result"] == pytest.approx(2.0)
    assert e2e["setup_s"] == pytest.approx(0.2)
    assert run.call_times(passes, key=lambda item: item["latency_s"]) == [1.0, 6.0]


def test_calibration_process_answers_each_request_with_kernel_seconds():
    import io

    import calibration

    out = io.StringIO()
    calibration.serve(io.StringIO("wall\ncpu\n"), out)
    times = [float(line) for line in out.getvalue().splitlines()]
    assert len(times) == 2 and all(0 < t < 10 for t in times)


def test_kernel_is_sampled_from_the_start_of_a_call_until_it_returns(monkeypatch):
    import time

    import child

    class Kernel:
        def seconds(self, clock):
            assert clock == "cpu"
            return 0.004

    monkeypatch.setattr(child, "SAMPLE_PERIOD_S", 0.01)
    item, samples = child.sampled(Kernel(), lambda: (time.sleep(0.1), {"code": 0})[1])
    assert item["code"] == 0 and item["latency_s"] >= 0.1
    assert len(samples) >= 3 and set(samples) == {0.004}
    item, samples = child.sampled(Kernel(), lambda: {"code": 0})
    assert samples == [0.004]


def test_peak_rss_is_the_childs_own_not_the_parents():
    import resource
    import subprocess

    ballast = b"\1" * (64 << 20)   # raises this process's peak by 64 MiB
    code = "import child; print(child.peak_rss_kb())"
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True,
                         capture_output=True, text=True).stdout
    parent_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert 0 < int(out) < parent_peak_kb - (32 << 10)
    del ballast
