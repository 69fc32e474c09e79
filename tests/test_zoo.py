import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cvlab.model as model_module
from cvlab.model import AnalyticCore, PolarCap, validate_surface
from cvlab.quadrature import Tolerance
from cvlab.sweep import sweep_samples
from cvlab.zoo import (
    InvalidParameter,
    all_entries,
    make_capped_cone,
    paraboloid_profile_jets,
    paraboloid_radius_oracle,
    zoo_entry,
    zoo_names,
)
from conftest import band_node_signs

TWO_PI = 2.0 * math.pi
HEIGHTS = [0.25 * (k + 1) for k in range(32)]


def test_zoo_roster():
    assert zoo_names() == (
        "flat-cylinder",
        "polar-plane",
        "paraboloid",
        "capped-cone",
        "catenoid",
        "cusp-cap",
    )


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        zoo_entry("klein-bottle")


@pytest.mark.parametrize("name", zoo_names())
def test_oracle_self_consistency(name):
    # the closed forms must satisfy the truncated closed-surface count
    # identically in h
    entry = zoo_entry(name)
    oracle = entry.oracle
    assert oracle.chi == entry.model.chi
    for h in HEIGHTS:
        residual = abs(TWO_PI * oracle.chi - oracle.c_trunc(h) - oracle.lam(h))
        assert residual < 1e-10, (name, h, residual)


@pytest.mark.parametrize("name", zoo_names())
def test_geodesic_curvature_matches_oracle(name):
    # every zoo end is a surface of rotation and all of a surface's ends
    # are alike, so each boundary circle turns by lambda / (2*pi*ends)
    entry = zoo_entry(name)
    for end in entry.model.ends:
        for h in (0.5, 1.0, 3.0, 12.0, 40.0):
            want = entry.oracle.lam(h) / (TWO_PI * len(entry.model.ends))
            for theta in (0.0, 2.1, 4.9):
                got = float(end.sqrt_jet(h, theta).d1)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (h, theta)


@pytest.mark.parametrize("name", zoo_names())
def test_computed_quantities_match_oracles(name):
    entry = zoo_entry(name)
    oracle = entry.oracle
    tol = Tolerance()
    for h in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
        sample = sweep_samples(entry.model, [h], tol)[0]
        for got, want, label in (
            (sample.mu, oracle.mu(h), "mu"),
            (sample.lam, oracle.lam(h), "lambda"),
            (sample.c_trunc, oracle.c_trunc(h), "c_trunc"),
        ):
            assert abs(got - want) <= max(1e-6, 1e-6 * abs(want)), (
                name,
                h,
                label,
                got,
                want,
            )


@pytest.mark.parametrize("name", zoo_names())
def test_hypothesis_flag_agrees_with_detection(name):
    entry = zoo_entry(name)
    h1 = band_node_signs(entry.model, 64.0)[0]
    assert (h1 is not None) == entry.oracle.hypothesis_holds, (name, h1)


def test_flat_cylinder_entry():
    entry = zoo_entry("flat-cylinder")
    assert entry.oracle.chi == 0
    assert entry.oracle.lam(7.0) == 0.0
    assert entry.oracle.mu(3.0) == pytest.approx(2 * TWO_PI)
    # equality case of the curvature bound
    assert TWO_PI * entry.oracle.chi - entry.oracle.c_total == pytest.approx(0.0)


def test_polar_plane_entry():
    entry = zoo_entry("polar-plane")
    for h in (0.5, 1.0, 9.0):
        assert entry.oracle.lam(h) == pytest.approx(TWO_PI)
    assert entry.oracle.L == pytest.approx(TWO_PI)
    assert TWO_PI * entry.oracle.chi - entry.oracle.L == pytest.approx(
        entry.oracle.c_total
    )
    assert entry.oracle.c_total == pytest.approx(0.0)


def test_paraboloid_entry():
    entry = zoo_entry("paraboloid")
    assert entry.oracle.c_total == pytest.approx(TWO_PI)
    # boundary turning angle when the parallel radius reaches 1:
    # cos(slope angle) = 1/sqrt(2)
    h_at_radius_one = 0.5 * (math.sqrt(2.0) + math.asinh(1.0))
    assert entry.oracle.lam(h_at_radius_one) == pytest.approx(
        TWO_PI / math.sqrt(2.0), rel=1e-10
    )
    assert entry.oracle.gauss_K(3.0, 0.0) > 0.0
    # L vanishes: the boundary turning dies off like 1/r
    assert entry.oracle.lam(50.0) < 0.7
    assert entry.oracle.L == 0.0


def test_paraboloid_profile_matches_closed_form_inverse():
    for t in (0.3, 1.0, 4.0, 37.0, 512.0, 10000.0):
        assert paraboloid_profile_jets(t)[0] == pytest.approx(
            paraboloid_radius_oracle(t), rel=1e-12
        )
    r, r1, r2 = paraboloid_profile_jets(2.0)
    assert r1 == pytest.approx(1.0 / math.sqrt(1.0 + r * r), rel=1e-14)
    assert r2 == pytest.approx(-r / (1.0 + r * r) ** 2, rel=1e-14)


@pytest.mark.parametrize("t", [9e307, 1e308, 1.7976931348623157e308])
def test_paraboloid_chart_is_finite_far_out(t):
    # r*r = 2t overflows from half the largest double on; there t(r) is
    # r^2/2 to double precision, so r = sqrt(2t) and r' = 1/r
    chart = zoo_entry("paraboloid").model.ends[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for jet in (chart.sqrt_jet(t, 0.0), chart.sqrt_jet(np.array([2.0, t]), 0.0)):
            f, d1, d2 = (np.atleast_1d(slot)[-1] for slot in jet)
            assert np.isfinite([f, d1, d2]).all()
            assert f == pytest.approx(math.sqrt(2.0) * math.sqrt(t), rel=1e-15)
            assert (d1, d2) == (1.0 / f, 0.0)


def test_paraboloid_chart_below_overflow_is_unchanged():
    # the values of the Newton inversion before the far branch was added,
    # up to the largest t whose r*r is finite
    t = np.array([0.5, 1e10, 1e300, 8.9e307, 8.988465674311578e307])
    want = (
        [0.4819445564563284, 141421.35619116144, 1.414213562373095e150,
         1.3341664064126334e154, 1.3407807929942596e154],
        [0.9008385530187393, 7.071067813996102e-06, 7.071067811865476e-151,
         7.495316889958615e-155, 7.458340731200208e-155],
        [-0.3173839322760954, -3.5355339090402886e-16, -0.0, -0.0, -0.0],
    )
    for got, exact in zip(paraboloid_profile_jets(t), want):
        assert got.tobytes() == np.array(exact).tobytes()


def test_paraboloid_radius_solves_arc_length():
    # the arc length residual stays at rounding level; the brentq oracle
    # stops on a relative tolerance, so it pins the radius relatively down
    # to the smallest t of the grid
    t = np.geomspace(1e-7, 1e4, 2001)
    r = paraboloid_profile_jets(t)[0]
    for ti, ri in zip(t.tolist(), r.tolist()):
        arc = 0.5 * (ri * math.sqrt(1.0 + ri * ri) + math.asinh(ri))
        assert abs(arc - ti) <= 4.0 * sys.float_info.epsilon * ti, (ti, ri)
        want = paraboloid_radius_oracle(ti)
        assert abs(ri - want) <= 1.5e-13 * want, (ti, ri, want)


def test_paraboloid_profile_pole():
    for t in (0.0, -0.5, -1e300):
        assert tuple(paraboloid_profile_jets(t)) == (0.0, 1.0, 0.0)
    r, r1, r2 = paraboloid_profile_jets(np.array([0.0, -3.0, 1.0]))
    assert list(r[:2]) == [0.0, 0.0] and list(r1[:2]) == [1.0, 1.0]
    assert list(r2[:2]) == [0.0, 0.0] and r[2] > 0.0


def test_paraboloid_profile_at_huge_heights():
    # q2 * q2 in r'' overflows above t ~ 6.7e153: no RuntimeWarning may
    # escape, and r'' stays within 1e-231 of its true value
    for t in (1e160, 1e200, 1e300):
        r, r1, r2 = paraboloid_profile_jets(t)
        assert 0.5 * (r * math.sqrt(1.0 + r * r) + math.asinh(r)) == pytest.approx(t, rel=1e-15)
        assert r == pytest.approx(math.sqrt(2.0 * t), rel=1e-15)
        assert r1 == pytest.approx(1.0 / math.sqrt(1.0 + r * r), rel=1e-15)
        assert -1e-231 <= r2 <= 0.0


def test_paraboloid_profile_value_does_not_depend_on_batch():
    grid = np.geomspace(1e-7, 1e4, 601)
    mixed = np.concatenate([grid[::3], grid[1::3][::-1], [0.0, -1.0], grid[2::3]])
    batch = paraboloid_profile_jets(mixed)
    for i, t in enumerate(mixed):
        single = paraboloid_profile_jets(float(t))
        assert [jet[i] for jet in batch] == list(single), t
    shaped = paraboloid_profile_jets(mixed[:400].reshape(20, 20))
    assert all(
        np.array_equal(a.ravel(), b[:400]) for a, b in zip(shaped, batch)
    )


COLD_START = """\
import contextlib, io, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import cvlab
print(scipy_loaded())
import cvlab.cli
print("scipy.integrate" in sys.modules)
print(scipy_loaded())
for argv in (
    ["list"],
    ["verify", "--surface", "paraboloid"],
    ["sweep", "--config", sys.argv[1], "--format", "json"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cvlab.cli.main(argv)
    print(code, scipy_loaded())
from cvlab.zoo import paraboloid_radius_oracle
print(paraboloid_radius_oracle(2.0).hex())
"""


def test_cli_import_leaves_ode_solvers_unloaded(tmp_path):
    """No CLI run imports scipy; only the paraboloid oracle does."""
    path = tmp_path / "theta-cap.cfg"
    path.write_text(
        "[surface]\ngenus = 0\nends = 1\ncore = polar-cap\n\n[end1]\n"
        "g = t^2*(1+0.3*cos(3*theta)*t^2*exp(-2*t))^2\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, str(path)],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines() == [
        "[]", "False", "[]", "0 []", "0 []", "0 []",
        # the root brentq finds, bit for bit
        "0x1.87216546fa86bp+0",
    ]


WITHOUT_SCIPY = """\
import contextlib, io, sys

sys.modules["scipy"] = None  # every import of scipy now fails
import cvlab.cli
from cvlab.zoo import paraboloid_radius_oracle

with contextlib.redirect_stdout(io.StringIO()):
    print(cvlab.cli.main(["verify", "--surface", "paraboloid"]), file=sys.stderr)
try:
    paraboloid_radius_oracle(2.0)
except ImportError as err:
    print(err)
"""


def test_runs_without_scipy_and_the_oracle_names_the_extra():
    # scipy is a test dependency: a sweep does not need it, and the one
    # function that does says where it comes from
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY], capture_output=True, text=True, check=True
    )
    assert done.stderr == "0\n"
    assert done.stdout == (
        "paraboloid_radius_oracle needs scipy, which comes with cvlab's test extra: "
        "pip install 'cvlab[test]'\n"
    )


class TestCappedCone:
    def test_slant_validation(self):
        with pytest.raises(InvalidParameter):
            make_capped_cone(0.0)
        with pytest.raises(InvalidParameter):
            make_capped_cone(1.0)
        with pytest.raises(InvalidParameter):
            make_capped_cone(-0.3)

    def test_half_slant_oracle(self):
        entry = make_capped_cone(0.5)
        assert entry.oracle.c_total == pytest.approx(math.pi)
        assert entry.oracle.L == pytest.approx(math.pi)
        # strict-inequality margin equals pi
        assert TWO_PI * entry.oracle.chi - entry.oracle.c_total == pytest.approx(
            math.pi
        )

    def test_lambda_constant_beyond_cap(self):
        entry = make_capped_cone(0.5)
        values = [entry.oracle.lam(h) for h in (11.0, 20.0, 45.0)]
        assert max(values) - min(values) < 1e-10
        sample = sweep_samples(entry.model, [12.0])[0]
        assert abs(sample.lam - math.pi) < 1e-10

    def test_flat_plane_degeneration(self):
        entry = make_capped_cone(0.999)
        assert entry.oracle.c_total == pytest.approx(TWO_PI * 0.001, rel=1e-9)

    def test_cap_curvature_nonnegative(self):
        entry = make_capped_cone(0.5)
        ks = [entry.oracle.gauss_K(t, 0.0) for t in (0.01, 0.5, 3.0, 9.0, 15.0)]
        assert all(k >= 0.0 for k in ks)
        assert max(ks) > 0.0


def test_catenoid_entry():
    entry = zoo_entry("catenoid")
    assert entry.oracle.chi == 0
    assert entry.oracle.c_total == pytest.approx(-2 * TWO_PI)
    assert not entry.oracle.hypothesis_holds
    # lambda increases toward its limit: the nonincreasing control fails
    assert entry.oracle.lam(2.0) > entry.oracle.lam(1.0)


@pytest.mark.parametrize("t", [1e103, 1e200, -1e200])
def test_catenoid_chart_is_finite_far_out(t):
    # w**3 overflows from 5.6e102 and 1 + t*t past 1.3e154; w = |t| there
    chart = zoo_entry("catenoid").model.ends[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for jet in (chart.sqrt_jet(t, 0.0), chart.sqrt_jet(np.array([2.0, t]), 0.0)):
            f, d1, d2 = (np.atleast_1d(slot)[-1] for slot in jet)
            assert (f, d1, d2) == (abs(t), math.copysign(1.0, t), 0.0)


def test_catenoid_chart_below_overflow_is_unchanged():
    t = np.array([0.0, 0.5, 3.0, 1e10, 5e102, 1e150, -7.25])
    w = np.sqrt(1.0 + t * t)
    with np.errstate(over="ignore"):
        want = (w, t / w, 1.0 / w**3)
    jet = zoo_entry("catenoid").model.ends[0].sqrt_jet(t, 0.0)
    for got, exact in zip(jet, want):
        assert got.tobytes() == exact.tobytes()


def test_cusp_cap_entry():
    entry = zoo_entry("cusp-cap")
    assert entry.oracle.chi == 1
    for h in (0.5, 1.0, 3.0):
        assert entry.oracle.mu(h) == pytest.approx(TWO_PI * math.exp(-h))
        assert entry.oracle.mu(h) > 0.0
        assert entry.oracle.lam(h) == pytest.approx(-TWO_PI * math.exp(-h))
    # strictly increasing lambda
    assert entry.oracle.lam(2.0) > entry.oracle.lam(1.0)
    assert entry.oracle.gauss_K(5.0, 1.0) == -1.0


def test_core_descriptors_match_construction():
    assert isinstance(zoo_entry("polar-plane").model.core, PolarCap)
    assert isinstance(zoo_entry("paraboloid").model.core, PolarCap)
    assert isinstance(zoo_entry("capped-cone").model.core, PolarCap)
    core = zoo_entry("cusp-cap").model.core
    assert isinstance(core, AnalyticCore)
    assert core.total_curvature == pytest.approx(2 * TWO_PI)


def test_entries_validate_cleanly(monkeypatch):
    monkeypatch.setattr(model_module, "_SAMPLES_PER_AXIS", 32)
    for entry in all_entries():
        validate_surface(entry.model)  # raises ModelInvalid on a violation
