import numpy as np
import pytest

import cvlab.quadrature as quadrature
import cvlab.sweep as sweep
from cvlab.sweep import geometric_schedule, run_sweep
from cvlab.zoo import zoo_entry

# deep doubling schedule for the limit-hungry surfaces; the hypothesis
# controls stay shallow so their negative curvature remains above the
# detection slack over the whole schedule
DEEP_SCHEDULE = geometric_schedule(0.0, 10)
SHALLOW_SCHEDULE = list(np.geomspace(0.5, 64.0, 12))

SCHEDULES = {
    "flat-cylinder": DEEP_SCHEDULE,
    "polar-plane": DEEP_SCHEDULE,
    "paraboloid": DEEP_SCHEDULE,
    "capped-cone": DEEP_SCHEDULE,
    "catenoid": SHALLOW_SCHEDULE,
    "cusp-cap": SHALLOW_SCHEDULE,
}


def mu_prime_order(model, h0, step, tol=sweep.DEFAULT_TOL):
    """``(dev_step, dev_half, floor)`` of the ``lambda = mu'`` check at
    ``h0``, measured apart from a sweep: its five heights as one boundary
    batch of their own."""
    heights = sweep._mu_prime_heights(h0, step)
    slots = sweep._MU_PRIME_SLOTS
    values, errors = sweep._boundaries(model, heights, tol, slots)
    return sweep._mu_prime_order(values, errors, step)


def walk_from(f, t_lo, tol=quadrature.DEFAULT_TOL):
    """The improper walk of ``f`` from ``t_lo`` on the explicit windows
    ``[t_lo, t_lo + 1]`` and then ``[t_lo + 2^(k-1), t_lo + 2^k]``."""
    edges = [t_lo, *quadrature._doublings(t_lo, 1.0)]
    return quadrature._integrate_windows(f, edges, tol)


def first_panel_costs(model):
    """Per end, what the sweep's quadrature pays for the first band panel
    of the curvature density on ``[t_min, t_min + 1]``: 15 evaluations on
    an answer without a theta axis, 240 on one with it."""
    costs = []
    for end in model.ends:
        lo = np.array([end.t_min])
        density = sweep._curvature_density(end)
        costs.append(quadrature._band_panels(density, lo, lo + 1.0, [quadrature._FLOOR])[2][0])
    return costs


def recorded_circles(monkeypatch):
    """``(errors, evaluations)`` of every circle batch the sweep runs from
    here on: all 0 and all 1 where the chart answered without a theta axis."""
    batches = []
    circles = sweep._circles

    def recording(f, params, tol):
        out = circles(f, params, tol)
        batches.append((out[1], out[2]))
        return out

    monkeypatch.setattr(sweep, "_circles", recording)
    return batches


def doubling_schedule(model, h_max):
    """The doubling ladder of 11 heights from ``model.min_height`` up to
    ``h_max``: ``origin + span * 2**-k``, k = 10..0."""
    origin = model.min_height
    return [origin + (h_max - origin) * 2.0**-k for k in range(10, -1, -1)]


def band_node_signs(model, h_max):
    """``(h1, kmin, kmax)`` as a sweep measures them (:func:`sweep._measure`)
    on the :func:`doubling_schedule` up to ``h_max``."""
    m = sweep._measure(model, doubling_schedule(model, h_max), sweep.DEFAULT_TOL)
    return m.h1, m.kmin, m.kmax


@pytest.fixture(scope="session")
def zoo_reports():
    return {
        name: run_sweep(zoo_entry(name).model, schedule)
        for name, schedule in SCHEDULES.items()
    }
