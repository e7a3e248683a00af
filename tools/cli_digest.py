"""Digest the output of a fixed set of command lines.

Runs each command of `commands` in-process through ``hypervol.cli.main``,
imported from the ``src`` beside this script's parent, and hashes its
stdout, stderr and exit code.  A warning a command raises is part of its
stderr, as its category and message.  Prints one sha256 per group and
one over all groups, so two checkouts print the same lines when every
command's output is byte-identical, and a group's line names where they
differ.

Groups:

* ``sweep``  -- ``sweep --n-list 3,4,5`` over the seed-0 t grid of
  perfbench's ``sweep`` workload;
* ``forms``  -- ``volume --method all`` at the 31 seed-0 points of
  perfbench's ``forms`` workload;
* ``ideal``  -- ``volume`` at t = pi/2 for n = 3 and 5;
* ``check``  -- ``check`` at n = 2..12 x t in {1e-300, 0.3, 1.2,
  pi/2 - 1e-5, pi/2};
* ``ratio`` and ``ladder`` -- a few cells each.

The perfbench inputs are read from ``perfbench/workloads.py``, which
imports nothing of hypervol.

Usage:

    python tools/cli_digest.py

The whole set takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HALF_PI = repr(math.pi / 2)


def commands(root: Path = ROOT) -> dict[str, list[list[str]]]:
    """The command lines of each group, in the order they run."""
    spec = importlib.util.spec_from_file_location("_digest_workloads",
                                                  root / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)                   # its dataclasses look it up there

    def point(n, t: str) -> list[str]:
        return ["--n", str(n), "--t", t]

    return {
        "sweep": [["sweep", "--n-list", ",".join(map(str, workloads.SWEEP_NS)),
                   "--t-list", ",".join(map(repr, workloads.sweep_inputs(0)))]],
        "forms": [["volume", *point(n, repr(t)), "--method", "all"]
                  for n, t in workloads.forms_inputs(0)],
        "ideal": [["volume", *point(n, HALF_PI)] for n in (3, 5)],
        "check": [["check", *point(n, t)] for n in range(2, 13)
                  for t in ("1e-300", "0.3", "1.2", repr(math.pi / 2 - 1e-5), HALF_PI)],
        "ratio": [["ratio", *point(n, t)] for n, t in ((3, "0.5"), (5, "1.2"), (8, HALF_PI))],
        "ladder": [["ladder", *point(n, t)] for n, t in ((3, HALF_PI), (5, "0.7"), (2, "0"))],
    }


def run(main, argv: list[str]) -> bytes:
    """The command line, stdout, stderr and exit code of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return json.dumps([argv, out.getvalue(), err.getvalue(), code]).encode()


def digests(groups: dict[str, list[list[str]]], main) -> dict[str, str]:
    """The sha256 of each group's runs, in order, and under ``all`` the
    sha256 of every group's name and digest."""
    out = {}
    for name, group in groups.items():
        h = hashlib.sha256()
        for argv in group:
            h.update(run(main, argv))
        out[name] = h.hexdigest()
    out["all"] = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from hypervol.cli import main as cli_main

    for name, digest in digests(commands(), cli_main).items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
