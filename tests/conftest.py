import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from hypervol import quadrature  # noqa: E402


@pytest.fixture
def stalled(monkeypatch):
    """A crude low-fidelity radial stack: the pair's own lo stack with each
    series level (3 and up; levels 1 and 2 are closed forms) cut to its
    first two Chebyshev coefficients, a line in u.  Every level keeps its
    plateau, and the gap to the high-fidelity stack is above the stall
    gate, so every radial volume with a series level raises on its gap:
    projective n >= 4, half-space n >= 5 and the facet n >= 5."""
    pair = quadrature._radial_pair

    def crude(levels, p, w_floor):
        lo, hi = pair(levels, p, w_floor)
        lo._series = [c and c[:2] for c in lo._series]
        return lo, hi

    monkeypatch.setattr(quadrature, "_radial_pair", crude)


@pytest.fixture
def nested_stalled(monkeypatch):
    """A noisy panel rule for the nested engine: the panel widths of every
    round, scaled by 1 + 1e-6 noise, so that no level of an orthoscheme
    chain finds a plateau by _MAX_DEGREE and every chain raises with its
    estimate.  The radial engine does not read these panels."""
    panels = quadrature._unit_panels

    def noisy(n):
        nodes, width, log_z = panels(n)
        return nodes, width * (1.0 + np.random.default_rng(n).uniform(-1e-6, 1e-6, n)), log_z

    monkeypatch.setattr(quadrature, "_unit_panels", noisy)
