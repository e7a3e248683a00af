import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from hypervol import quadrature  # noqa: E402


@pytest.fixture
def stalled(monkeypatch):
    """A crude low-fidelity radial stack, one Gauss point on one panel, on
    the pair's own theta range: its gap to the high-fidelity stack is above
    the stall gate, so every radial volume raises."""
    pair = quadrature._radial_pair

    def crude(levels, p, w_floor):
        lo, hi = pair(levels, p, w_floor)
        settings = quadrature._RadialSettings(1, 1)
        return quadrature.RadialPowerStack(levels, p, lo.theta_min, settings), hi

    monkeypatch.setattr(quadrature, "_radial_pair", crude)
