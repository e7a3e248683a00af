import csv
import dataclasses
import json
import math

import pytest

from hypervol import (
    ConvergenceError,
    SimplexParams,
    cli,
    growth_bounds,
    quadrature,
    volume_projective,
)
from hypervol.bounds import growth_ratio_grid
from hypervol.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVolume:
    def test_zero_t(self, capsys):
        code, out, _ = run(capsys, "volume", "--n", "3", "--t", "0", "--method", "projective")
        assert code == 0
        assert "value=0 " in out

    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "volume", "--n", "2", "--t", "0.6435011088",
                           "--method", "all")
        assert code == 0
        assert out.count("method=") == 3
        rel = float(out.strip().splitlines()[-1].split("=")[1])
        assert rel <= 1e-6
        for line in out.splitlines():
            if line.startswith("method="):
                val = float(line.split("value=")[1].split()[0])
                assert val == pytest.approx(0.5454557889380810, rel=1e-9)

    def test_halfspace_rejected_at_ideal(self, capsys):
        code, _, err = run(capsys, "volume", "--n", "3", "--t", "1.5707963",
                           "--method", "halfspace")
        assert code == 1
        assert "undefined at ideal t" in err

    def test_sin_t_flag(self, capsys):
        code, out, _ = run(capsys, "volume", "--n", "2", "--sin-t", "0.6")
        assert code == 0
        assert float(out.split("value=")[1].split()[0]) == pytest.approx(
            0.5454557889380810, rel=1e-9)

    def test_t_and_sin_t_exclusive(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["volume", "--n", "2", "--t", "0.5", "--sin-t", "0.5"])
        assert info.value.code == 1

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "volume", "--n", "1", "--t", "0.5")
        assert code == 1
        assert "error" in err

    def test_tol_and_seed_flags(self, capsys):
        code, out, _ = run(capsys, "volume", "--n", "3", "--t", "0.8", "--tol", "1e-6")
        assert code == 0
        assert "value=" in out
        # nothing samples, so there is no seed to set
        with pytest.raises(SystemExit) as info:
            main(["volume", "--n", "3", "--t", "0.8", "--seed", "5"])
        assert info.value.code == 1

    def test_all_runs_three_forms_beyond_twelve(self, capsys):
        code, out, err = run(capsys, "volume", "--n", "13", "--t", "0.5", "--method", "all")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert [line.split()[0] for line in lines[:3]] == [
            "method=projective", "method=orthoscheme", "method=halfspace"]
        assert out.count("value=") == 3
        assert lines[3].startswith("max_rel_diff=")
        assert float(lines[3].split("=")[1]) <= 1e-6

    def test_all_skips_halfspace_at_ideal(self, capsys):
        code, out, err = run(capsys, "volume", "--n", "3", "--t", "1.5707963",
                             "--method", "all")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert [line.split()[0] for line in lines[:2]] == [
            "method=projective", "method=orthoscheme"]
        assert lines[2] == "method=halfspace skipped (degenerate t)"
        assert lines[3].startswith("max_rel_diff=")

    def test_all_skips_halfspace_cancelled_at_tiny_t(self, capsys):
        # at n = 3, t = 1e-300 the half-space form's two facet integrals
        # cancel to every digit and cross: it is skipped as degenerate, and
        # the two other forms still print
        code, out, err = run(capsys, "volume", "--n", "3", "--t", "1e-300", "--method", "all")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert [line.split()[0] for line in lines[:2]] == [
            "method=projective", "method=orthoscheme"]
        assert lines[2:] == ["method=halfspace skipped (degenerate t)", "max_rel_diff=0"]

    def test_all_prints_stalled_estimates(self, capsys, stalled):
        # the stalled radial forms print their best estimates beside the
        # settled orthoscheme, and the command exits 2; n = 5 is the first
        # n where both radial forms have a series level to stall on
        params = SimplexParams(5, 1.0)
        expected = {}
        for name in ("projective", "halfspace"):
            with pytest.raises(ConvergenceError) as info:
                cli._FORMS[name](params)
            est = info.value.estimate
            expected[name] = (f"method={name} value={cli._fmt(est.value)} "
                              f"error={cli._fmt(est.error_estimate)} n_evals={est.n_evals}")
        code, out, err = run(capsys, "volume", "--n", "5", "--t", "1.0", "--method", "all")
        assert code == 2 and err == ""
        lines = out.splitlines()
        assert lines[0] == expected["projective"] and lines[2] == expected["halfspace"]
        assert lines[1].startswith("method=orthoscheme value=")
        assert lines[3].startswith("max_rel_diff=")

    def test_all_keeps_the_orthoscheme_past_an_underflowed_level(self, capsys):
        # at n = 80 both radial forms stall on an unresolved level (their
        # stacks stop there, before the levels whose sums underflow) and
        # the orthoscheme refuses its 80-level chain unbuilt; each form
        # still prints its line, nan on an inf bar, the command exits 2,
        # and the spread of values that hold a nan is nan
        code, out, _ = run(capsys, "volume", "--n", "80", "--t", "0.5", "--method", "all")
        assert code == 2
        lines = out.splitlines()
        for line, name in zip(lines, ("projective", "orthoscheme", "halfspace")):
            assert line.startswith(f"method={name} value=nan error=inf n_evals="), name
        assert lines[1].endswith(" n_evals=0")
        assert lines[-1] == "max_rel_diff=nan"

    def test_orthoscheme_beyond_twelve(self, capsys):
        code, out, err = run(capsys, "volume", "--n", "13", "--t", "0.5",
                             "--method", "orthoscheme")
        assert code == 0 and err == ""
        assert out.startswith("method=orthoscheme value=")

    def test_bad_tol(self, capsys):
        code, _, err = run(capsys, "volume", "--n", "3", "--t", "0.8",
                           "--tol", "1e-20")
        assert code == 1
        for tol in ("inf", "1e10"):
            code, _, err = run(capsys, "volume", "--n", "3", "--t", "0.8", "--tol", tol)
            assert code == 1
            assert "error:" in err


class TestRatio:
    def test_near_ideal(self, capsys):
        code, out, _ = run(capsys, "ratio", "--n", "3", "--t", "1.57")
        assert code == 0
        assert "SANDWICH=ok" in out
        ratio = float(out.split("ratio=")[1].split()[0])
        assert ratio == pytest.approx(0.32336, rel=1e-3)
        assert "upper=0.49999" in out

    def test_zero_t_rejected(self, capsys):
        code, _, err = run(capsys, "ratio", "--n", "3", "--t", "0")
        assert code == 1
        assert "undefined" in err

    def test_all_fields_present(self, capsys):
        code, out, _ = run(capsys, "ratio", "--n", "4", "--t", "0.8")
        assert code == 0
        for field in ("ratio=", "ratio_err=", "lower=", "upper=",
                      "hm_lower=", "hm_upper=", "SANDWICH="):
            assert field in out
        ratio = float(out.split("ratio=")[1].split()[0])
        lo = float(out.split("lower=")[1].split()[0])
        hi = float(out.split("upper=")[1].split()[0])
        assert lo <= ratio <= hi

    def test_violation_exits_3(self, capsys, monkeypatch):
        # the sweep's sandwich rule, printed in the ratio's own words
        bounds = cli.growth_bounds
        monkeypatch.setattr(cli, "growth_bounds",
                            lambda params: dataclasses.replace(bounds(params), upper=0.0))
        code, out, err = run(capsys, "ratio", "--n", "3", "--t", "0.5")
        assert code == 3 and err == ""
        assert out.endswith(" upper=0 hm_lower=0.25 hm_upper=0.5 SANDWICH=VIOLATION\n")

    def test_stall_reported_as_non_convergence(self, capsys, stalled):
        # the stalled estimate is a volume, not a ratio; no ratio line is
        # printed.  V_4 has a series level (level 3) to stall on
        code, out, err = run(capsys, "ratio", "--n", "4", "--t", "1.5")
        assert code == 2 and out == ""
        assert err.startswith("non-convergence:")


@pytest.mark.parametrize("argv", [
    ("ratio", "--n", "12", "--t", "1e-27"),
    ("sweep", "--n-list", "3", "--t-list", "1e-120"),
])
def test_underflowing_volume_rejected(capsys, argv):
    # V_n ~ t^n rounds to 0.0, so the ratio has no value
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "underflows" in err


class TestSweep:
    def test_grid_rows_and_order(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n-list", "3",
                           "--t-start", "0.1", "--t-stop", "1.5", "--t-step", "0.1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("n,t,ratio,ratio_err,lower,upper,hm_lower,hm_upper,"
                            "V_n,V_facet,sandwich_flag")
        assert len(lines) == 16          # header + 15 rows
        assert all(line.endswith(",ok") for line in lines[1:])
        ts = [float(line.split(",")[1]) for line in lines[1:]]
        assert ts == sorted(ts)

    def test_empty_grid(self, capsys):
        code, _, err = run(capsys, "sweep", "--n-list", "", "--t-list", "0.5")
        assert code == 1

    def test_json_format_parity(self, capsys):
        code, out_csv, _ = run(capsys, "sweep", "--n-list", "3", "--t-list", "0.5,0.9")
        code2, out_json, _ = run(capsys, "sweep", "--n-list", "3", "--t-list", "0.5,0.9",
                                 "--format", "json")
        assert code == 0 and code2 == 0
        rows = json.loads(out_json)
        header = out_csv.splitlines()[0].split(",")
        assert len(rows) == 2
        for row, line in zip(rows, out_csv.strip().splitlines()[1:]):
            assert list(row.keys()) == header
            csv_vals = line.split(",")
            for key, cv in zip(header, csv_vals):
                jv = row[key]
                if key in ("n",):
                    assert int(jv) == int(cv)
                elif key == "sandwich_flag":
                    assert jv == cv
                else:
                    assert float(jv) == float(cv)

    def test_reproducible_output(self, capsys):
        a = run(capsys, "sweep", "--n-list", "3,4", "--t-list", "0.4,1.0")
        b = run(capsys, "sweep", "--n-list", "3,4", "--t-list", "0.4,1.0")
        assert a == b

    def test_rejects_t_outside_range(self, capsys):
        # each cell's SimplexParams checks its t before anything computes
        for t in ("1.8", "-0.1", "nan"):
            code, out, err = run(capsys, "sweep", "--n-list", "3", "--t-list", f"0.5,{t}")
            assert code == 1 and out == "", t
            assert err.startswith("error: t must satisfy 0 <= t <= pi/2"), t

    @pytest.mark.parametrize("argv, message", [
        (("--t-start", "0.1"), "provide either --t-list or --t-start/--t-stop/--t-step"),
        (("--t-start", "0", "--t-stop", "1", "--t-step", "0"), "t-step must be positive"),
    ], ids=["start-only", "zero-step"])
    def test_rejects_incomplete_range(self, capsys, argv, message):
        code, out, err = run(capsys, "sweep", "--n-list", "3", *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_violation_exits_3(self, capsys, monkeypatch):
        # a bracket that excludes the ratio flags every row and exits 3
        bounds = cli.growth_bounds
        monkeypatch.setattr(cli, "growth_bounds",
                            lambda params: dataclasses.replace(bounds(params), upper=0.0))
        code, out, err = run(capsys, "sweep", "--n-list", "3", "--t-list", "0.5,0.9")
        assert code == 3 and err == ""
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith(",violation") for row in rows)

    def test_out_checked_before_computing(self, capsys, tmp_path, monkeypatch):
        def grid(*_):
            raise AssertionError("the sweep computed before opening --out")
        monkeypatch.setattr(cli, "growth_ratio_grid", grid)
        target = tmp_path / "missing" / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--n-list", "3", "--t-list", "0.5",
                             "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot write") and str(target) in err

    @pytest.mark.parametrize("start, stop, step", [
        ("nan", "1", "0.1"), ("0", "nan", "0.1"), ("0", "1", "nan"),
        ("0", "inf", "0.1"), ("0", "1", "inf"), ("inf", "1", "0.1"),
    ])
    def test_rejects_non_finite_range(self, capsys, start, stop, step):
        code, out, err = run(capsys, "sweep", "--n-list", "3", "--t-start", start,
                             "--t-stop", stop, "--t-step", step)
        assert code == 1 and out == ""
        assert err.startswith("error: t-start, t-stop and t-step must be finite")

    @pytest.mark.parametrize("n_list, stop, step, cells", [
        ("3", "0.1", "1e-300", "1e+299"), ("3", "1", "1e-320", "inf"),
        ("3", "0.1", "1e-7", "1000001"), ("3,4", "1e-6", "2e-12", "1000002"),
    ])
    def test_rejects_a_grid_past_the_cell_cap(self, capsys, n_list, stop, step, cells):
        # the cell count is checked before any t of the range is formed, so
        # a step of 1e-300 returns at once instead of building 1e299 values
        code, out, err = run(capsys, "sweep", "--n-list", n_list, "--t-start", "0",
                             "--t-stop", stop, "--t-step", step)
        assert code == 1 and out == ""
        assert err == f"error: sweep grid has {cells} cells, more than 1,000,000\n"

    @pytest.mark.parametrize("n_list, t_list", [("3,x", "0.5"), ("3", "0.5,abc")])
    def test_rejects_unparsable_list(self, capsys, n_list, t_list):
        code, out, err = run(capsys, "sweep", "--n-list", n_list, "--t-list", t_list)
        assert code == 1 and out == ""
        assert err.startswith("error: --")

    def test_one_cell_row_equals_ratio(self, capsys):
        # a single point is a grid of one: same stacks, same digits
        _, table, _ = run(capsys, "sweep", "--n-list", "4", "--t-list", "0.8")
        _, line, _ = run(capsys, "ratio", "--n", "4", "--t", "0.8")
        row = next(csv.DictReader(table.splitlines()))
        fields = dict(item.split("=") for item in line.split())
        for key in ("ratio", "ratio_err", "lower", "upper", "hm_lower", "hm_upper"):
            assert row[key] == fields[key], key
        assert row["sandwich_flag"] == fields["SANDWICH"]


# the criterion-04 grid: n = 3, 4, 5 at t = 0.05, 0.10, ..., 1.55
GRID_TS = ",".join(repr(round(0.05 * k, 10)) for k in range(1, 32))


class TestSweepGrid:
    def test_builds_one_stack_pair_per_dim_and_power(self, capsys, monkeypatch):
        built = []
        init = quadrature.RadialPowerStack.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(quadrature.RadialPowerStack, "__init__", counted)
        code, out, _ = run(capsys, "sweep", "--n-list", "3,4,5", "--t-list", GRID_TS)
        assert code == 0 and len(out.splitlines()) == 94
        # volumes of n and facets of n + 1 share their dim: 4 pairs for 93 cells
        assert len(built) <= 8

    def test_one_top_integral_call_per_stack(self, capsys, monkeypatch):
        calls = []
        top = quadrature.RadialPowerStack.top_integral

        def counted(self, *args):
            calls.append(args)
            return top(self, *args)

        monkeypatch.setattr(quadrature.RadialPowerStack, "top_integral", counted)
        code, out, _ = run(capsys, "sweep", "--n-list", "3,4,5", "--t-list", GRID_TS)
        assert code == 0 and len(out.splitlines()) == 94
        # each stack runs all of its rows' top integrals in one call
        assert len(calls) <= 8

    def test_stall_reported_as_non_convergence(self, capsys, stalled):
        # the first stalled volume in cell order is reported: the first
        # cell's volume, not its facet nor a row of another batch
        with pytest.raises(ConvergenceError) as info:
            volume_projective(SimplexParams(4, 1.0))
        code, out, err = run(capsys, "sweep", "--n-list", "4,3,5", "--t-list", "1.0")
        assert code == 2 and out == ""
        assert err.startswith("non-convergence:")
        best = float(err.split("best estimate ")[1].split()[0])
        assert best == pytest.approx(info.value.estimate.value, rel=1e-12)

    def test_rows_match_standalone_volumes(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n-list", "3,4,5", "--t-list", GRID_TS)
        assert code == 0
        for row in csv.DictReader(out.splitlines()):
            params = SimplexParams(int(row["n"]), float(row["t"]))
            est, vol, facet = growth_ratio_grid([params])[0]
            for key, ref in (("V_n", vol), ("V_facet", facet), ("ratio", est)):
                assert float(row[key]) == pytest.approx(ref.value, rel=1e-12, abs=0), (key, row)
            b = growth_bounds(params)
            ok = b.lower - est.error_estimate <= est.value <= b.upper + est.error_estimate
            assert row["sandwich_flag"] == ("ok" if ok else "violation")


class TestCheck:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--n", "3", "--t", "0.8")
        assert code == 0
        assert "FAIL" not in out
        for label in ("ladder_chain", "gram_closed_form", "gamma_spheres",
                      "sin_alpha_ladder", "zn_sandwich", "cross_model"):
            assert label in out

    def test_degenerate_skips(self, capsys):
        code, out, _ = run(capsys, "check", "--n", "3", "--t", "0")
        assert code == 0
        assert "PASS ladder_chain" in out
        assert "SKIP" in out
        assert "zn_sandwich" in out

    def test_cross_model_without_cancelled_halfspace(self, capsys):
        # at n = 3, t = 1e-300 the half-space form is degenerate;
        # cross_model compares the two other forms
        code, out, err = run(capsys, "check", "--n", "3", "--t", "1e-300")
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "PASS cross_model residual=0"

    def test_larger_case(self, capsys):
        code, out, _ = run(capsys, "check", "--n", "5", "--t", "1.3")
        assert code == 0
        assert "FAIL" not in out

    def test_beyond_orthoscheme_cap(self, capsys):
        # n = 13 was past the old orthoscheme cap; cross_model now compares
        # all three forms there
        code, out, err = run(capsys, "check", "--n", "13", "--t", "0.5")
        assert code == 0 and err == ""
        assert "PASS cross_model" in out and "FAIL" not in out

    def test_near_ideal_triangle(self, capsys):
        # pi/2 - t ~ 1e-6: the n = 2 orthoscheme used to miss the thin outer
        # layer and fail cross_model at a residual of 1.1e-6
        code, out, _ = run(capsys, "check", "--n", "2", "--t", "1.5707953")
        assert code == 0 and "FAIL" not in out

    def test_cross_model_residual_at_n12(self, capsys):
        # the order^n tensor rule left the n = 12 orthoscheme 7.6% off
        code, out, _ = run(capsys, "check", "--n", "12", "--t", "1.2")
        assert code == 0
        line = next(line for line in out.splitlines() if "cross_model" in line)
        assert float(line.split("residual=")[1]) < 1e-9

    def test_cross_model_budget_follows_tolerance(self, capsys, monkeypatch):
        # the bars here are ~1e-10 relative, so a form 1e-7 off must fail,
        # not hide under a fixed 1e-6 floor
        halfspace = cli.volume_halfspace

        def skewed(params, cfg):
            est = halfspace(params, cfg)
            return dataclasses.replace(est, value=est.value * (1 + 1e-7))

        monkeypatch.setattr(cli, "volume_halfspace", skewed)
        code, out, _ = run(capsys, "check", "--n", "3", "--t", "0.8")
        assert code == 3
        assert "FAIL cross_model" in out

    @pytest.mark.parametrize("bad", [
        lambda lo, hi: (hi + 1.0, hi),          # empty
        lambda lo, hi: (0.0 * lo, hi),          # reaching below the unit hemisphere
        lambda lo, hi: (lo, hi + 1.0),          # reaching above the facet spheres
    ], ids=["empty", "below_hemisphere", "above_spheres"])
    def test_zn_sandwich_fails_on_a_bad_interval(self, capsys, monkeypatch, bad):
        zn_bounds = cli.zn_bounds
        monkeypatch.setattr(cli, "zn_bounds", lambda emb, v: bad(*zn_bounds(emb, v)))
        code, out, _ = run(capsys, "check", "--n", "3", "--t", "0.8")
        assert code == 3
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert [line.split()[1] for line in fails] == ["zn_sandwich"]
        assert float(fails[0].split("residual=")[1]) > 0.0

    def test_stall_keeps_structural_lines(self, capsys, stalled):
        # the forms raise inside cross_model; the lines before it are kept.
        # V_4 has a series level (level 3) to stall on
        code, out, err = run(capsys, "check", "--n", "4", "--t", "1.5")
        assert code == 2
        assert "non-convergence:" in err
        assert [line.split()[:2] for line in out.splitlines()] == [
            ["PASS", label] for label in ("ladder_chain", "d1_equals_r1", "gram_closed_form",
                                          "gamma_spheres", "sin_alpha_ladder", "zn_sandwich")]

    def test_audit_limits(self, capsys):
        code, out, _ = run(capsys, "check", "--n", "3", "--t", "0.8", "--audit-limits")
        assert code == 0
        assert "fitted_limit=" in out
        assert "claimed_limit=1" in out
        products = [float(line.split("product=")[1])
                    for line in out.splitlines() if "product=" in line]
        assert len(products) == 6
        assert all(b < a for a, b in zip(products, products[1:]))


class TestLadder:
    def test_ideal(self, capsys):
        code, out, _ = run(capsys, "ladder", "--n", "3", "--t", "1.5707963268")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,r_k,tanh_r_k,d_k,tanh_d_k"
        last = lines[-1].split(",")
        assert last[1] == "inf" and last[2] == "1"
        assert float(last[3]) == pytest.approx(0.34657359027997264, rel=1e-12)

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "ladder", "--n", "3", "--t", "0")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert [float(x) for x in line.split(",")[1:]] == [0.0, 0.0, 0.0, 0.0]

    def test_r3_value(self, capsys):
        code, out, _ = run(capsys, "ladder", "--n", "3", "--t", "0.6435011088")
        assert code == 0
        r3 = float(out.strip().splitlines()[-1].split(",")[1])
        assert r3 == pytest.approx(math.log(2.0), rel=1e-9)

    def test_rejects_tol(self, capsys):
        # the ladder is closed-form; no quadrature reads a tolerance
        with pytest.raises(SystemExit) as info:
            main(["ladder", "--n", "3", "--t", "0.5", "--tol", "1e-6"])
        assert info.value.code == 1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "ladder.csv"
        code, out, _ = run(capsys, "ladder", "--n", "3", "--t", "0.5",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("k,r_k")

    def test_out_unwritable(self, capsys, tmp_path):
        target = tmp_path / "missing" / "ladder.csv"
        code, out, err = run(capsys, "ladder", "--n", "3", "--t", "0.5",
                             "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot write") and str(target) in err


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv", [
        ("volume", "--n", "3", "--t", "0.8", "--method", "all"),
        ("sweep", "--n-list", "3,4", "--t-list", "0.5,1.2", "--format", "json"),
        ("ladder", "--n", "4", "--t", "1.0"),
    ])
    def test_shared_parser_keeps_no_state(self, capsys, argv):
        # a fresh parser gives the reference; the shared one must print the
        # same after an argument error and after another subcommand
        cli.build_parser.cache_clear()
        alone = run(capsys, *argv)
        with pytest.raises(SystemExit) as info:
            main(["volume", "--n", "3", "--t", "0.5", "--sin-t", "0.5"])
        assert info.value.code == 1
        capsys.readouterr()
        assert run(capsys, "ratio", "--n", "5", "--t", "1.2", "--tol", "1e-6")[0] == 0
        assert run(capsys, *argv) == alone
        assert alone[0] == 0 and alone[1]
