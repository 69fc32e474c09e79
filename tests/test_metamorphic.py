"""Metamorphic relations of whole sweeps: two inputs whose reports must
agree, with no oracle for either.

A theta-free chart and the same expression made theta-dependent by a
vanishing ``0*theta`` term give byte-identical JSON reports.  The
quadrature reads the first chart's answers as columns and the second's
as 2-D, so this pins that an end read as 2-D costs evaluations (240 per
band panel against 15), not numbers: on an integrand constant in theta
both trapezoid rules read the value itself, with no theta error.
"""

import math

import pytest

from cvlab.cli import load_surface_config, main
from conftest import first_panel_costs

TWO_PI = 2.0 * math.pi
T_MIN = 0.25

# the dsl-ends benchmark forms: G and lambda(t_min)/(2*pi) = w'(t_min)
END_FORMS = {
    "1.25^2 + t^2": T_MIN / math.hypot(1.25, T_MIN),
    "exp(-2*t)": -math.exp(-T_MIN),
    "(1 + t)^2": 1.0,
    "1": 0.0,
    "cosh(t)^2": math.sinh(T_MIN),
}
CAP = "(t + 0.3*t^3/(1 + t^2))^2"
HEAD = "name = one-end\ngenus = 0\nends = 1\n"  # one name for both reports


def config(g: str) -> tuple[str, list[str]]:
    """A one-end surface on ``g`` whose core closes Gauss-Bonnet, or the
    polar cap, and the CLI options of its schedule."""
    if g == CAP:
        return f"[surface]\n{HEAD}core = polar-cap\n\n[end1]\ng = {g}\n", []
    core = TWO_PI * (1.0 - END_FORMS[g])
    text = f"[surface]\n{HEAD}core = analytic:{core!r}\n\n[end1]\ng = {g}\nt_min = {T_MIN}\n"
    return text, ["--h-max", "16"]


def json_report(tmp_path, name: str, text: str, options: list[str], capsys):
    """``(first band panel's evaluations, the JSON report)`` of the
    surface ``text``: 15 when its curvature density answers without a
    theta axis, 240 with it."""
    path = tmp_path / f"{name}.cfg"
    path.write_text(text)
    (cost,) = first_panel_costs(load_surface_config(path))
    assert main(["sweep", "--config", str(path), *options, "--format", "json", "--out", "-"]) == 0
    return cost, capsys.readouterr().out


@pytest.mark.parametrize("g", [*END_FORMS, CAP])
def test_vanishing_theta_term_leaves_the_report(g, tmp_path, capsys):
    text, options = config(g)
    flat, plain = json_report(tmp_path, "plain", text, options, capsys)
    turned = text.replace(f"g = {g}\n", f"g = {g} + 0*theta\n")
    full, with_theta = json_report(tmp_path, "theta", turned, options, capsys)
    assert (flat, full) == (15, 240)
    assert with_theta == plain
