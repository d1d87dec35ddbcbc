import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qpdiff.contour import default_contour  # noqa: E402
from qpdiff.quadrature import QuadratureConfig  # noqa: E402
from qpdiff.whfactor import _integral_memo, _projection_memo  # noqa: E402


@pytest.fixture(scope="session")
def k3():
    return 3.0


@pytest.fixture(scope="session")
def contour3():
    return default_contour(3.0)


@pytest.fixture(scope="session")
def cfg():
    return QuadratureConfig()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(autouse=True)
def cold_integrals():
    """Every test integrates its quarter factors and projects their
    variables itself: none is served from the integrals or projections
    an earlier test left in the process-wide memos."""
    _integral_memo.clear()
    _projection_memo.clear()
