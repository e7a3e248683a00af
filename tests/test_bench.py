"""tools/bench.py runs perfbench in equal-length copies of two trees and
records both sides; here against a stub ``run.py`` that prints one fixed
result line per run and a stub ``accuracy.py``, so no benchmark runs.
tools/accuracy.py itself runs on a three-point stub table and a two-point
one where every form raises at one point."""

import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
spec = importlib.util.spec_from_file_location("accuracy", TOOLS / "accuracy.py")
accuracy = importlib.util.module_from_spec(spec)
spec.loader.exec_module(accuracy)

STUB = '''import json, sys
from pathlib import Path
tree = Path(__file__).resolve().parent.parent
speed = float((tree / "src" / "hypervol" / "speed.txt").read_text())
with open({log!r}, "a") as log:
    log.write(json.dumps([tree.name, len(str(tree)), sys.argv[1:]]) + "\\n")
print("# a comment line")
print(json.dumps({{"correct": True, "attempted": 31, "failed": 0, "metrics": {{
    "results_per_s": {{"value": speed, "unit": "1/s"}},
    "accuracy_digits": {{"value": 11.942857142857141, "unit": "digits"}}}}}}))
'''

# the side it runs for is the src on its PYTHONPATH
ACCURACY_STUB = '''import json, os
from pathlib import Path
src = Path(os.environ["PYTHONPATH"])
print(json.dumps({"tree": src.parent.name, "speed": (src / "hypervol" / "speed.txt").read_text()}))
'''


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                   check=True, capture_output=True)


def test_bench_alternates_equal_length_copies(tmp_path):
    repo, log = tmp_path / "repo", tmp_path / "runs.log"
    for name in ("bench.py", "code_lines.py"):
        (repo / "tools").mkdir(parents=True, exist_ok=True)
        shutil.copy(TOOLS / name, repo / "tools" / name)
    (repo / "tools" / "accuracy.py").write_text(ACCURACY_STUB)
    (repo / "perfbench").mkdir()
    (repo / "perfbench" / "run.py").write_text(STUB.format(log=str(log)))
    (repo / "src" / "hypervol").mkdir(parents=True)
    (repo / "src" / "hypervol" / "speed.txt").write_text("100")
    (repo / "src" / "hypervol" / "a.py").write_text("x = 1\n")
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "forms"}, {"name": "ideal"}],
        "end_to_end": [{"name": "results_per_s", "unit": "1/s", "better": "higher"},
                       {"name": "accuracy_digits", "unit": "digits", "better": "higher"}]}))
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    # the change: faster, one more code line, and a file not yet added
    (repo / "src" / "hypervol" / "speed.txt").write_text("110")
    (repo / "src" / "hypervol" / "b.py").write_text("y = 2\n")

    subprocess.run([sys.executable, str(repo / "tools" / "bench.py"), "t", "--parent", "HEAD",
                    "--pairs", "3", "--seconds", "0.5", "--workload", "forms"],
                   check=True, capture_output=True)

    record = json.loads((repo / "BENCH_t.json").read_text())
    assert record["settings"] == {"pairs": 3, "seconds": 0.5, "seed": 0, "workloads": ["forms"]}
    assert record["code_lines"] == {"parent": 1, "change": 2}
    assert record["source_bytes"] == {"parent": 6, "change": 12}
    assert record["accuracy"] == {"parent": {"tree": "parent", "speed": "100"},
                                  "change": {"tree": "change", "speed": "110"}}
    assert record["commits"]["change"].endswith(" + uncommitted changes")
    assert record["commits"]["change"].startswith(record["commits"]["parent"])
    assert set(record["machine"]) == {"nproc", "cpu", "platform", "python", "numpy"}
    forms = record["workloads"]["forms"]
    rate = forms["end_to_end"]["results_per_s"]
    assert rate["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0, "runs": [100.0] * 3}
    assert rate["change"]["median"] == 110.0 and rate["change_better_pairs"] == 3
    # equal digits are no gain
    assert forms["end_to_end"]["accuracy_digits"]["change_better_pairs"] == 0
    assert forms["per_layer"]["change"] == {"results_per_s": 110.0,
                                            "accuracy_digits": 11.942857142857141}

    runs = [json.loads(line) for line in log.read_text().splitlines()]
    assert [name for name, _, _ in runs] == ["parent", "change", "change", "parent",
                                            "parent", "change", "parent", "change"]
    assert len({length for _, length, _ in runs}) == 1
    assert runs[0][2] == ["--workload", "forms", "--seed", "0", "--seconds", "0.5", "--trace", "0"]
    assert runs[-1][2][-2:] == ["--trace", "1"]


def test_accuracy_pass_on_a_stub_table():
    # three references set off the projective volumes by known relative
    # amounts, the largest at (3, 0.8); the ideal tetrahedron's is read
    # from the table; half-space has no ideal point
    from hypervol import SimplexParams, volume_projective

    shift = {(3, 0.8): 1e-9, (4, math.pi / 2): 1e-12, (3, math.pi / 2): 1e-10}
    ests = {key: volume_projective(SimplexParams(*key)) for key in shift}
    volumes = {key: repr(est.value * (1 + shift[key])) for key, est in ests.items()}
    record = accuracy.worst_errors(volumes)
    assert math.isclose(record["ideal_tet_rel_err"], 1e-10, rel_tol=1e-5)
    forms = record["forms"]
    assert {name: (f["returned"], f["raised"]) for name, f in forms.items()} == {
        "projective": (3, 0), "orthoscheme": (3, 0), "halfspace": (1, 2)}
    for f in forms.values():
        # the forms agree to about 1e-15, far inside the shifts
        assert f["rel_err_at"] == [3, 0.8]
        assert math.isclose(f["worst_rel_err"], 1e-9, rel_tol=1e-5)
    est = ests[3, 0.8]
    assert forms["projective"]["err_over_bar_at"] == [3, 0.8]
    assert math.isclose(forms["projective"]["worst_err_over_bar"],
                        1e-9 * est.value / est.error_estimate, rel_tol=1e-5)
    # a shift above a form's bar is a miss: 1e-9 and 1e-10 are above every
    # bar, 1e-12 only above the orthoscheme's, a chop plateau near 1e-14
    # relative
    assert {name: f["bar_misses"] for name, f in forms.items()} == {
        "projective": 2, "orthoscheme": 3, "halfspace": 1}
    assert forms["projective"]["median_bar_over_value"] == statistics.median(
        e.error_estimate / e.value for e in ests.values())
    # the per-form records alone, as the gauss_bonnet block reads them: at
    # n = 40 every form raises, which counts as raised for each, and
    # half-space, which returned nowhere, has no median bar
    block = accuracy.form_errors({(3, math.pi / 2): volumes[3, math.pi / 2],
                                  (40, 0.5): "2.4388721904448531105e-60"})
    assert {name: (f["returned"], f["raised"]) for name, f in block.items()} == {
        "projective": (1, 1), "orthoscheme": (1, 1), "halfspace": (0, 2)}
    assert all(block[name].keys() == forms[name].keys() for name in forms)
    assert block["projective"]["rel_err_at"] == [3, math.pi / 2]
    assert block["halfspace"]["median_bar_over_value"] is None
    assert block["halfspace"]["rel_err_at"] is None


def test_accuracy_blocks_on_stub_grids():
    # the gap block on two points of the honesty grid reads their gaps;
    # the flat block against a stub reference set off the orthoscheme by
    # a known amount at n = 3, and 0 at n = 2, where a nonzero form reads inf
    from hypervol import SimplexParams, volume_orthoscheme, volume_projective

    grid = [(3, 0.8, 4), (5, math.pi / 2, 24)]
    values = [(volume_orthoscheme(SimplexParams(n, t)).value,
               volume_projective(SimplexParams(n, t)).value) for n, t, _ in grid]
    gaps = [abs(orth - proj) / proj for orth, proj in values]
    block = accuracy.orthoscheme_gaps(grid)
    assert block["beyond_bar"] == block["raised"] == 0
    assert block["worst_rel_gap"] == max(gaps)
    value = volume_orthoscheme(SimplexParams(3, 1e-20)).value
    flat = accuracy.flat_errors(lambda n, t: 0.0 if n == 2 else value * (1 + 1e-9), [3])
    assert flat["orthoscheme"]["rel_err_at"] == 3
    assert math.isclose(flat["orthoscheme"]["worst_rel_err"], 1e-9, rel_tol=1e-5)
    flat = accuracy.flat_errors(lambda n, t: 0.0 if n == 2 else value, [2, 3])
    assert flat["projective"] == {"worst_rel_err": math.inf, "rel_err_at": 2}


def test_accuracy_script_reads_the_frozen_table():
    env = {**os.environ, "PYTHONPATH": str(TOOLS.parent / "src")}
    out = subprocess.run([sys.executable, str(TOOLS / "accuracy.py")], env=env, check=True,
                         capture_output=True, text=True).stdout
    record = json.loads(out)
    assert {name: (f["returned"], f["raised"]) for name, f in record["forms"].items()} == {
        "projective": (28, 0), "orthoscheme": (28, 0), "halfspace": (24, 4)}
    assert {name: f["bar_misses"] for name, f in record["forms"].items()} == {
        "projective": 0, "orthoscheme": 0, "halfspace": 0}
    assert record["ideal_tet_rel_err"] <= 4.4e-16
    # the even-n Gauss-Bonnet table: half-space has no ideal point, and
    # no form builds n = 40
    gauss_bonnet = record["gauss_bonnet"]
    assert {name: (f["returned"], f["raised"]) for name, f in gauss_bonnet.items()} == {
        "projective": (5, 1), "orthoscheme": (5, 1), "halfspace": (3, 3)}
    assert {name: f["bar_misses"] for name, f in gauss_bonnet.items()} == {
        "projective": 0, "orthoscheme": 0, "halfspace": 0}
    # at the ideal n = 23 and 24 points projective is the form that is off
    assert record["orthoscheme_vs_projective"]["raised"] == 0
    assert record["orthoscheme_vs_projective"]["beyond_bar"] <= 2
    assert record["flat"]["orthoscheme"]["worst_rel_err"] <= 1e-14
