"""The band driver's and the circle rule's results, pinned bit for bit.

Every value and error estimate below is pinned as ``float.hex``, with
its evaluation count and ``converged`` flag, so that a change to the
bookkeeping (how a heap is summed, how the tolerance is tested, how node
arrays are built) must return exactly these numbers.  The ``-1d`` rows
are bands whose integrand answers without a theta axis, whose numbers
have not moved since the theta rule replaced the 15 x 15 tensor panels;
the ``-2d`` and circle rows pin that rule, the rotated trapezoid pair.  The cases
cover a batch that converges in its first round, batches that refine
over several rounds, batches that stop unconverged on their evaluation
budget, and a one-panel odd integrand whose panel value underflows to
``-0.0``, which the driver returns as ``0.0``, as ``math.fsum([-0.0])``
does.
"""

import math

import numpy as np
import pytest

from cvlab.quadrature import Tolerance, _band_panels, integrate_bands, integrate_circles


def _odd(t, theta):
    return -t + 0.0 * theta


CASES = {
    "one-round-bands-1d": lambda: integrate_bands(
        lambda t, th: np.exp(-t), [0.0, 0.5, 1.0, 1.0, 2.0]
    ),
    "one-round-bands-2d": lambda: integrate_bands(
        lambda t, th: np.exp(-t) * (2.0 + np.cos(th)), [0.0, 0.5, 1.0]
    ),
    "one-round-circles": lambda: integrate_circles(
        lambda p, th: p * (2.0 + np.cos(th)), [0.5, 1.0, 3.0]
    ),
    "multi-round-bands-1d": lambda: integrate_bands(
        lambda t, th: np.sqrt(t), [0.0, 1.0, 4.0, 9.0]
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
    ),
    "capped-bands-2d": lambda: integrate_bands(
        lambda t, th: t * np.abs(np.cos(th) - 0.3), [0.0, 1.0, 2.0], Tolerance(max_evaluations=1000)
    ),
    "capped-circles": lambda: integrate_circles(
        lambda p, th: 1.0 / (p - np.cos(th)), [1.001, 1.5], Tolerance(max_evaluations=100)
    ),
    "odd-bands-1d": lambda: integrate_bands(lambda t, th: -t, [-1e-160, 1e-160]),
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
        ("0x1.3c7262c41221ap+2", "0x1.3316927e112a3p-46", 240, True),
        ("0x1.7fde90c40347ap+1", "0x1.72a9933c7ca84p-47", 240, True),
    ],
    "one-round-circles": [
        ("0x1.921fb54442d18p+2", "0x0.0p+0", 16, True),
        ("0x1.921fb54442d18p+3", "0x0.0p+0", 16, True),
        ("0x1.2d97c7f3321d2p+5", "0x0.0p+0", 16, True),
    ],
    "multi-round-bands-1d": [
        ("0x1.0c152383d2033p+2", "0x1.0f555dcf33deep-26", 345, True),
        ("0x1.d524fe24f89d6p+4", "0x1.6dedb72d1075bp-25", 15, True),
        ("0x1.3e591a2b5f8f8p+6", "0x1.c43167f622a35p-34", 15, True),
    ],
    "multi-round-bands-2d": [
        ("0x1.41d27ebb34c34p+2", "0x1.6007e40d9a3f9p-46", 720, True),
        ("0x1.43e431de38660p+1", "0x1.236d1b4adde92p-47", 720, True),
    ],
    "multi-round-circles": [
        ("0x1.aba6ebf6ea117p+2", "0x1.1dde4f0510eefp-27", 16, True),
        ("0x1.1c0c5c14243e4p+6", "0x1.85d084d2661a7p-25", 32, True),
        ("0x1.d1139bfdceac9p+16", "0x1.1de28ade8780fp-29", 64, True),
    ],
    "capped-bands-1d": [
        ("0x1.8b5ca94d19ce1p+1", "0x1.4b6293d92d9f4p-9", 75, False),
        ("0x1.aee56c7bb7cd5p+2", "0x1.8992049b351dap-35", 15, True),
    ],
    "capped-bands-2d": [
        ("0x1.0bc8029b80b05p+1", "0x1.b827c12b8d07dp-8", 720, False),
        ("0x1.91ac03e941086p+2", "0x1.4a1dd0e0a9c9ap-6", 720, False),
    ],
    "capped-circles": [
        ("0x1.c97396f877aa0p+7", "0x1.1c1c6aac010e2p+7", 64, False),
        ("0x1.67aba6d20e69ap+2", "0x1.08addecf6dfaep-40", 64, True),
    ],
    "odd-bands-1d": [("0x0.0p+0", "0x0.0p+0", 15, True)],
    "odd-bands-2d": [("0x0.0p+0", "0x0.0p+0", 240, True)],
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
    a, b = np.array([-1e-160]), np.array([1e-160])
    value, error, _, _ = _band_panels(lambda t, th: -t, a, b, [8])
    assert value[0] == 0.0 and math.copysign(1.0, value[0]) == -1.0
    assert error[0] == 0.0
