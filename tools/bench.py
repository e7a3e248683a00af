"""Benchmark the working tree against a parent commit with perfbench.

Usage:

    python tools/bench.py LABEL [--parent REV] [--pairs N] [--seconds S]
                          [--seed N] [--workload NAME ...]

Copies two trees into a fresh temporary directory: the parent commit
(``git archive REV``) as ``parent`` and the working tree (the files that
``git ls-files --cached --others --exclude-standard`` lists, as they are
on disk) as ``change``.  The two names have one length, because
perfbench's ``peak_rss_mb``, and its throughput by a few percent, move
with the length of the checkout's path.  Each of ``--pairs`` pairs runs
``perfbench/run.py --workload NAME --seed N --seconds S`` in both copies
for every workload, the parent first in even pairs and the change first
in odd ones; then one traced run (``--trace 1``) per workload and side
records the per-layer metrics.  Without ``--parent`` only the change
runs.

Writes ``BENCH_<LABEL>.json`` at the root of the checkout: the machine,
the commits, the settings, the code lines of each side's ``src/hypervol``
(``tools/code_lines.py``) and the bytes of its ``*.py`` files, and for
each workload and end-to-end metric of ``BENCHMARK.json`` each side's
runs, median and quartiles, and in how many pairs the change was better
in the metric's direction.  Values are
compared rounded to 12 significant digits, since ``accuracy_digits``
wobbles in its last bit from run to run.  Under ``accuracy`` it records,
for each side, what ``tools/accuracy.py`` of this checkout prints when it
runs on that side's ``src``: each form's worst error against the frozen
Schlafli volumes of ``tests/oracles.py``, relative and over its own bar,
and the ideal tetrahedron's against its 20-digit entry there.

The source bytes are recorded because, where the environment sets
PYTHONDONTWRITEBYTECODE=1, each perfbench child compiles ``src`` afresh,
and ``peak_rss_mb`` then moves with the length of the source, docstrings
included, with no change in what runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from code_lines import code_lines  # noqa: E402


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def copy_commit(rev: str, dest: Path) -> None:
    """The files of commit ``rev``, as ``git archive`` writes them."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(dest: Path) -> None:
    """The files git tracks or would add, as they are on disk."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        path = os.fsdecode(name)
        if path and (ROOT / path).is_file():          # a deleted file is still listed
            (dest / path).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(ROOT / path, dest / path)


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Metric name -> value of one perfbench run in ``tree``: its last line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    run = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if run.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed in {tree}:\n{run.stderr}")
    return {k: m["value"] for k, m in json.loads(run.stdout.splitlines()[-1])["metrics"].items()}


def accuracy(tree: Path) -> dict:
    """What ``tools/accuracy.py`` of this checkout prints, run on the
    ``src`` of ``tree``."""
    argv = [sys.executable, str(ROOT / "tools" / "accuracy.py")]
    run = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(tree / "src")})
    if run.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed in {tree}:\n{run.stderr}")
    return json.loads(run.stdout.splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 \
        else runs * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def machine() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                  if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return {"nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("--parent", help="the commit to compare with; none runs the change alone")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload of BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    head = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain").strip())
    sides = ["parent", "change"] if args.parent else ["change"]
    record = {
        "label": args.label,
        "machine": machine(),
        "commits": {"change": head + (" + uncommitted changes" if dirty else "")},
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                     "workloads": workloads},
        "code_lines": {},
        "source_bytes": {},
        "accuracy": {},
        "workloads": {},
    }
    if args.parent:
        record["commits"]["parent"] = git("rev-parse", args.parent).decode().strip()

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        for side, tree in trees.items():
            tree.mkdir()
            if side == "parent":
                copy_commit(args.parent, tree)
            else:
                copy_working_tree(tree)
            sources = [f.read_text() for f in (tree / "src" / "hypervol").rglob("*.py")]
            record["code_lines"][side] = sum(map(code_lines, sources))
            record["source_bytes"][side] = sum(len(text.encode()) for text in sources)
            record["accuracy"][side] = accuracy(tree)
        runs = {w: {side: [] for side in sides} for w in workloads}
        for pair in range(args.pairs):
            for w in workloads:
                for side in sides[::-1] if pair % 2 else sides:
                    runs[w][side].append(perfbench(trees[side], w, args.seed, args.seconds, False))
                    print(f"pair {pair} {w} {side}: {runs[w][side][-1]}", file=sys.stderr)
        traces = {w: {side: perfbench(trees[side], w, args.seed, args.seconds, True)
                      for side in sides} for w in workloads}

    for w in workloads:
        metrics = {}
        for m in spec["end_to_end"]:
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            values = {side: [r[name] for r in runs[w][side]] for side in sides}
            metrics[name] = {"unit": m["unit"], "better": m["better"],
                             **{side: summary(v) for side, v in values.items()}}
            if args.parent:
                metrics[name]["change_better_pairs"] = sum(
                    sign * (float(f"{c:.12g}") - float(f"{p:.12g}")) > 0
                    for p, c in zip(values["parent"], values["change"]))
        record["workloads"][w] = {"end_to_end": metrics, "per_layer": traces[w]}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
