import math

import numpy as np
import pytest

from qlbench.hilbert import MeasurementBasis, StateVector, named_axis_basis, named_state

PHASE_TOL = 1e-10  # ray equality: global phase is quotiented out


@pytest.fixture
def z_plus():
    return named_state("z+")


@pytest.fixture
def z_basis():
    return named_axis_basis("z")


@pytest.fixture
def x_basis():
    return named_axis_basis("x")


def tilted_z_basis(product: float) -> MeasurementBasis:
    """The z basis turned by the angle t with cos t sin t = ``product``: its
    projectors differ from z's, and commute with them, up to entries of that size."""
    t = 0.5 * math.asin(2.0 * product)
    c, s = math.cos(t), math.sin(t)
    return MeasurementBasis.from_vectors([[c, s], [-s, c]], labels=("z+", "z-"))


def same_ray(u, v, tol: float = PHASE_TOL) -> bool:
    """Equality of unit vectors up to global phase: | <u|v> | = 1 within tol."""
    ua, va = (w.amplitudes if isinstance(w, StateVector) else np.asarray(w, dtype=complex).ravel()
              for w in (u, v))
    if ua.size != va.size:
        return False
    return abs(abs(np.vdot(ua, va)) - 1.0) <= tol


def assert_close(actual, expected, tol=1e-12):
    assert abs(actual - expected) <= tol, f"{actual} != {expected} within {tol}"


def assert_table(actual: np.ndarray, expected, tol=1e-12):
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert float(np.max(np.abs(actual - expected))) <= tol
