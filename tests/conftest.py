import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from hypervol import quadrature  # noqa: E402


@pytest.fixture
def stalled(monkeypatch):
    """A crude low-fidelity radial stack: the pair's own lo stack with each
    level cut to its first two Chebyshev coefficients, a line in u.  Every
    level keeps its plateau, and the gap to the high-fidelity stack is
    above the stall gate, so every radial volume raises on its gap."""
    pair = quadrature._radial_pair

    def crude(levels, p, w_floor):
        lo, hi = pair(levels, p, w_floor)
        lo._series = [c and c[:2] for c in lo._series]
        return lo, hi

    monkeypatch.setattr(quadrature, "_radial_pair", crude)
