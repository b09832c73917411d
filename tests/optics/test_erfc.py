"""The erfc port behind ``ber_from_q`` against ``scipy.special.erfc``.

``repro.optics.noise`` computes erfc with a pure-Python port of the
Cephes routine scipy runs, so a faulted run never imports scipy.  The
port must return the same bits as scipy on every branch: erf's
rational form below 1, P/Q on [1, 8), R/S from 8 on, the reflection
2 - erfc(-x) for negative inputs, the underflow past sqrt(MAXLOG) and
the infinities.  scipy is imported here, in the test only.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.optics.noise import _erfc, ber_from_q

special = pytest.importorskip("scipy.special")


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def port(xs: np.ndarray) -> np.ndarray:
    return np.array([_erfc(x) for x in xs.tolist()], dtype=np.float64)


SQRT_MAXLOG = math.sqrt(7.09782712893383996843e2)  # ~26.64: exp(-x*x) underflows
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0, 8.0, -8.0,
    math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
    math.nextafter(8.0, 0.0), math.nextafter(8.0, 9.0),
    math.nextafter(-1.0, 0.0), math.nextafter(-8.0, -9.0),
    SQRT_MAXLOG, math.nextafter(SQRT_MAXLOG, 0.0), math.nextafter(SQRT_MAXLOG, 30.0),
    -SQRT_MAXLOG, 26.0, 26.7, 27.0, 1e10, 1e308, -1e308,
    math.inf, -math.inf, math.nan, -math.nan,
    struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0],  # a payload
]


def test_bit_identical_to_scipy_on_a_million_inputs():
    rng = np.random.default_rng(20100619)
    xs = np.concatenate([
        rng.uniform(-1.0, 1.0, 250_000),     # erf's T/U branch, both signs
        rng.uniform(1.0, 8.0, 250_000),      # P/Q
        rng.uniform(8.0, 30.0, 150_000),     # R/S, then underflow past ~26.64
        -rng.uniform(1.0, 30.0, 150_000),    # reflection: 2 - erfc(-x)
        rng.uniform(-40.0, 40.0, 150_000),   # everything at once
        np.exp(rng.uniform(-700.0, 700.0, 50_000)),  # tiny and huge magnitudes
        np.array(EDGES),
    ])
    assert xs.size >= 1_000_000
    got, want = port(xs), special.erfc(xs)
    wrong = np.flatnonzero(bits(got) != bits(want))
    assert wrong.size == 0, [(xs[i], got[i], want[i]) for i in wrong[:5]]


@pytest.mark.parametrize("x", EDGES)
def test_branch_points_and_limits(x):
    assert bits([_erfc(x)]) == bits([special.erfc(x)])


def test_limits_by_value():
    assert _erfc(math.inf) == 0.0 and _erfc(-math.inf) == 2.0
    assert _erfc(27.0) == 0.0 and _erfc(-27.0) == 2.0  # past sqrt(MAXLOG)
    assert _erfc(26.5) > 0.0  # not yet
    assert math.isnan(_erfc(math.nan))
    assert _erfc(0.0) == 1.0


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_any_float_matches_scipy(x):
    assert bits([_erfc(x)]) == bits([special.erfc(x)])


@given(st.floats(min_value=0.0, max_value=40.0))
def test_ber_from_q_is_half_scipy_erfc(q):
    assert ber_from_q(q) == 0.5 * float(special.erfc(q / math.sqrt(2.0)))
