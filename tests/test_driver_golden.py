"""The adaptive driver's results, pinned bit for bit.

Every value and error estimate below is pinned as ``float.hex``, with
its evaluation count and ``converged`` flag, so that a change to the
driver's bookkeeping (how a heap is summed, how the tolerance is tested,
how node arrays are built) must return exactly these numbers.  The cases
cover a batch that converges in its first round, batches that refine
over several rounds, batches that stop unconverged on their evaluation
budget, and a one-panel odd integrand whose panel value underflows to
``-0.0``, which the driver returns as ``0.0``, as ``math.fsum([-0.0])``
does.
"""

import math

import numpy as np
import pytest

from cvlab.quadrature import Tolerance, _panels_1d, integrate_bands, integrate_circles

TWO_PI = 2.0 * math.pi


def _odd(t, theta):
    return -t + 0.0 * theta


CASES = {
    "one-round-bands-1d": lambda: integrate_bands(
        lambda t, th: np.exp(-t), [0.0, 0.5, 1.0, 1.0, 2.0], theta_free=True
    ),
    "one-round-bands-2d": lambda: integrate_bands(
        lambda t, th: np.exp(-t) * (2.0 + np.cos(th)), [0.0, 0.5, 1.0]
    ),
    "one-round-circles": lambda: integrate_circles(
        lambda p, th: p * (2.0 + np.cos(th)), [0.5, 1.0, 3.0]
    ),
    "multi-round-bands-1d": lambda: integrate_bands(
        lambda t, th: np.sqrt(t), [0.0, 1.0, 4.0, 9.0], theta_free=True
    ),
    "multi-round-bands-2d": lambda: integrate_bands(
        lambda t, th: np.exp(-t + np.cos(3.0 * th)), [0.0, 1.0, 3.0]
    ),
    "multi-round-circles": lambda: integrate_circles(
        lambda p, th: np.exp(p * np.cos(th)), [0.5, 4.0, 12.0]
    ),
    "capped-bands-1d": lambda: integrate_bands(
        lambda t, th: np.sqrt(np.abs(t - 1.0 / 3.0)),
        [0.0, 1.0, 2.0],
        Tolerance(max_evaluations=100),
        theta_free=True,
    ),
    "capped-bands-2d": lambda: integrate_bands(
        lambda t, th: t * np.abs(np.cos(th) - 0.3), [0.0, 1.0, 2.0], Tolerance(max_evaluations=1000)
    ),
    "capped-circles": lambda: integrate_circles(
        lambda p, th: 1.0 / (p - np.cos(th)), [1.001, 1.5], Tolerance(max_evaluations=100)
    ),
    "odd-bands-1d": lambda: integrate_bands(_odd, [-1e-160, 1e-160], theta_free=True),
    "odd-bands-2d": lambda: integrate_bands(_odd, [-1e-160, 1e-160]),
}

# (value, error_estimate, evaluations, converged) per integral
GOLDEN = {
    "one-round-bands-1d": [
        ("0x1.3c7262c41221ap+1", "0x1.2d97c7f3321d2p-47", 15, True),
        ("0x1.7fde90c40347bp+0", "0x1.6c6cbc45dc8dep-48", 15, True),
        ("0x0.0p+0", "0x0.0p+0", 0, True),
        ("0x1.760bd4e5f641ap+0", "0x1.78fdb9effea46p-48", 15, True),
    ],
    "one-round-bands-2d": [
        ("0x1.3c7262c412208p+2", "0x1.613b150000000p-26", 225, True),
        ("0x1.7fde90c403465p+1", "0x1.ac7d980000000p-27", 225, True),
    ],
    "one-round-circles": [
        ("0x1.921fb54442d02p+2", "0x1.8800000000000p-46", 30, True),
        ("0x1.921fb54442d02p+3", "0x1.8800000000000p-45", 30, True),
        ("0x1.2d97c7f3321c2p+5", "0x1.3000000000000p-43", 30, True),
    ],
    "multi-round-bands-1d": [
        ("0x1.0c152383d2033p+2", "0x1.0f555dcf33deep-26", 345, True),
        ("0x1.d524fe24f89d6p+4", "0x1.6dedb72d1075bp-25", 15, True),
        ("0x1.3e591a2b5f8f8p+6", "0x1.c43167f622a35p-34", 15, True),
    ],
    "multi-round-bands-2d": [
        ("0x1.41d27ebb34c22p+2", "0x1.7f89b4d000000p-25", 4725, True),
        ("0x1.43e431de38651p+1", "0x1.9d34c09000000p-26", 8325, True),
    ],
    "multi-round-circles": [
        ("0x1.aba6ebf1c5bc0p+2", "0x1.0fd85dc000000p-24", 60, True),
        ("0x1.1c0c5c10cdebbp+6", "0x1.940b768000000p-28", 150, True),
        ("0x1.d1139bfdcea62p+16", "0x1.06f1c01665c00p-10", 150, True),
    ],
    "capped-bands-1d": [
        ("0x1.8b5ca94d19ce1p+1", "0x1.4b6293d92d9f4p-9", 75, False),
        ("0x1.aee56c7bb7cd5p+2", "0x1.8992049b351dap-35", 15, True),
    ],
    "capped-bands-2d": [
        ("0x1.0a5055acada3fp+1", "0x1.613c4658a07a0p-5", 675, False),
        ("0x1.8f7880830475fp+2", "0x1.08ed34c2785c0p-3", 675, False),
    ],
    "capped-circles": [
        ("0x1.189740d53ae0cp+7", "0x1.34ce05586377dp+2", 90, False),
        ("0x1.67aba6d20e44bp+2", "0x1.926df73400000p-22", 90, False),
    ],
    "odd-bands-1d": [("0x0.0p+0", "0x0.0p+0", 15, True)],
    "odd-bands-2d": [("0x0.0p+0", "0x0.0p+0", 225, True)],
}


@pytest.mark.parametrize("name", list(CASES))
def test_driver_results_are_pinned_bit_for_bit(name):
    got = [
        (r.value.hex(), r.error_estimate.hex(), r.evaluations, r.converged)
        for r in CASES[name]()
    ]
    assert got == GOLDEN[name]


def test_odd_panel_value_is_negative_zero():
    # the case above is only a test of the one-panel sum if the panel
    # itself returns -0.0
    (value, error, _), = _panels_1d(lambda _, t: _odd(t, 0.0), [(0, (-1e-160, 1e-160))], TWO_PI)
    assert value == 0.0 and math.copysign(1.0, value) == -1.0
    assert error == 0.0
