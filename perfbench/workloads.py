"""Seeded inputs and closed-form oracles for the three benchmark workloads.

Each workload is a list of jobs; one pass sweeps every job once.  A job
is either a built-in zoo surface (name plus builder parameters) or the
text of a surface definition file that the sweep loads through
``cvlab.cli.load_surface_config``.  The program only ever sees those
names, parameters and files; the oracles stay on the benchmark side.

* ``zoo``: the six built-ins on the test-suite schedules (doubling
  schedule for hypothesis surfaces, shallow one for the two controls),
  with the capped-cone slant drawn from the seed.
* ``dsl-theta``: polar caps ``t^2*(1+a*sin(k*theta)*t^2*exp(-b*t))^2``
  on the CLI default schedule.  The theta term integrates to zero over
  every circle, so ``mu = 2*pi*h``, ``lambda = 2*pi`` and all curvature
  integrals vanish exactly, whatever ``a``, ``k``, ``b``.
* ``dsl-ends``: genus-0/1 surfaces with an analytic core and 2-3
  theta-free DSL ends.  ``lambda(h) = 2*pi*sum w_i'(h)`` with
  ``w = sqrt(G)``, and the core value closes the Gauss-Bonnet count.

Parameters are drawn per pass slot in strata, so every seed gives a pass
of similar cost; that keeps seed-to-seed spread down to machine noise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from cvlab.cli import RunConfig
from cvlab.sweep import geometric_schedule

TWO_PI = 2.0 * math.pi

# tests/conftest.py: doubling schedule for the limit-hungry surfaces, a
# shallow one for the controls so their negative curvature stays above the
# detection slack over the whole probe window
DEEP_SCHEDULE = tuple(geometric_schedule(0.0, 10))
SHALLOW_SCHEDULE = tuple(float(h) for h in np.geomspace(0.5, 64.0, 12))
ZOO_SCHEDULES = {
    "flat-cylinder": DEEP_SCHEDULE,
    "polar-plane": DEEP_SCHEDULE,
    "paraboloid": DEEP_SCHEDULE,
    "capped-cone": DEEP_SCHEDULE,
    "catenoid": SHALLOW_SCHEDULE,
    "cusp-cap": SHALLOW_SCHEDULE,
}

SLANT_RANGE = (0.2, 0.8)
CAP_A_RANGE = (0.1, 0.5)
CAP_K_VALUES = (1, 2, 3)
# b >= 1.25 keeps h1 below 24, well inside the 1..64 schedule with three
# samples beyond it; b = 0.5 pushes h1 to the schedule end and flips verdicts
CAP_B_RANGE = (1.25, 2.0)
END_C_RANGE = (1.0, 1.5)  # c^2+t^2 costs more as c shrinks: keep the spread small
END_TMIN_RANGE = (0.0, 0.5)
ENDS_PER_SURFACE = (2, 2, 3, 3)
# cosh(t)^2 ends need a shallow schedule; every dsl-ends surface shares it,
# so a pass costs the same wherever the seed puts the funnels
ENDS_H_MAX = 16.0
CAPS_PER_PASS = 2


@dataclass(frozen=True)
class Expect:
    """Closed forms for one sweep's outputs.

    ``L`` is ``math.inf`` and ``c_total`` is ``None`` when the total
    curvature diverges toward ``-inf``.
    """

    name: str
    chi: int
    mu: Callable[[float], float]
    lam: Callable[[float], float]
    c_trunc: Callable[[float], float]
    L: float
    c_total: float | None
    hypothesis: bool


@dataclass(frozen=True)
class Job:
    label: str
    schedule: tuple[float, ...]
    zoo_builder: str | None = None  # attribute of cvlab.zoo
    zoo_args: tuple = ()
    config_text: str | None = None
    expect: Expect | None = None  # zoo jobs take the built entry's oracle


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One draw from each of n equal slices of [lo, hi], shuffled."""
    width = (hi - lo) / n
    values = [round(lo + width * (i + rng.random()), 4) for i in range(n)]
    rng.shuffle(values)
    return values


def zoo_jobs(rng: random.Random) -> list[Job]:
    slant = round(rng.uniform(*SLANT_RANGE), 4)
    jobs = []
    for name, schedule in ZOO_SCHEDULES.items():
        if name == "capped-cone":
            jobs.append(Job(name, schedule, "make_capped_cone", (slant,)))
        else:
            jobs.append(Job(name, schedule, "zoo_entry", (name,)))
    return jobs


def cap_jobs(rng: random.Random) -> list[Job]:
    n = CAPS_PER_PASS
    ks = rng.sample(CAP_K_VALUES, n)
    schedule = tuple(RunConfig(surface="cap").schedule())
    expect = Expect(
        name="",
        chi=1,
        mu=lambda h: TWO_PI * h,
        lam=lambda h: TWO_PI,
        c_trunc=lambda h: 0.0,
        L=TWO_PI,
        c_total=0.0,
        hypothesis=True,
    )
    jobs = []
    for i, (a, k, b) in enumerate(
        zip(_strata(rng, *CAP_A_RANGE, n), ks, _strata(rng, *CAP_B_RANGE, n))
    ):
        name = f"cap-{i}"
        text = (
            f"[surface]\nname = {name}\ngenus = 0\nends = 1\ncore = polar-cap\n\n"
            f"[end1]\ng = t^2*(1+{a}*sin({k}*theta)*t^2*exp(-{b}*t))^2\nt_min = 0.0\n"
        )
        jobs.append(Job(name, schedule, config_text=text, expect=replace(expect, name=name)))
    return jobs


# kind -> (w, w', lim w') with w = sqrt(G); c only enters c^2+t^2
_END_FORMS = {
    "c^2+t^2": (lambda c, t: math.hypot(c, t), lambda c, t: t / math.hypot(c, t), 1.0),
    "exp(-2*t)": (lambda c, t: math.exp(-t), lambda c, t: -math.exp(-t), 0.0),
    "(1+t)^2": (lambda c, t: 1.0 + t, lambda c, t: 1.0, 1.0),
    "1": (lambda c, t: 1.0, lambda c, t: 0.0, 0.0),
    "cosh(t)^2": (lambda c, t: math.cosh(t), lambda c, t: math.sinh(t), math.inf),
}
_FLAT_AT_INFINITY = ("(1+t)^2", "1")  # K = 0; every other kind has K < 0 far out


def ends_jobs(rng: random.Random) -> list[Job]:
    # each kind twice; the two copies draw c and t_min from the lower and
    # the upper half of their ranges, so every seed's pass does similar work
    params = {
        kind: list(zip(_strata(rng, *END_C_RANGE, 2), _strata(rng, *END_TMIN_RANGE, 2)))
        for kind in _END_FORMS
    }
    pool = [kind for kind in _END_FORMS for _ in range(2)]
    rng.shuffle(pool)
    sizes = list(ENDS_PER_SURFACE)
    rng.shuffle(sizes)
    jobs = []
    start = 0
    for i, size in enumerate(sizes):
        ends = [(kind, *params[kind].pop()) for kind in pool[start : start + size]]
        start += size
        jobs.append(_ends_job(f"ends-{i}", rng.randint(0, 1), ends))
    return jobs


def _ends_job(name: str, genus: int, ends: list[tuple[str, float, float]]) -> Job:
    chi = 2 - 2 * genus - len(ends)
    core = TWO_PI * chi - TWO_PI * sum(_END_FORMS[k][1](c, t0) for k, c, t0 in ends)
    lines = [f"[surface]\nname = {name}\ngenus = {genus}\nends = {len(ends)}\n"
             f"core = analytic:{core!r}\nchi = {chi}\n"]
    for j, (kind, c, t0) in enumerate(ends, start=1):
        source = kind.replace("c^2", f"{c}^2")
        lines.append(f"[end{j}]\ng = {source}\nt_min = {t0}\n")
    schedule = tuple(RunConfig(surface=name, h_max=ENDS_H_MAX).schedule())

    def lam(h: float) -> float:
        return TWO_PI * sum(_END_FORMS[k][1](c, h) for k, c, _ in ends)

    L = TWO_PI * sum(_END_FORMS[k][2] for k, _, _ in ends)
    expect = Expect(
        name=name,
        chi=chi,
        mu=lambda h: TWO_PI * sum(_END_FORMS[k][0](c, h) for k, c, _ in ends),
        lam=lam,
        c_trunc=lambda h: TWO_PI * chi - lam(h),
        L=L,
        c_total=TWO_PI * chi - L if math.isfinite(L) else None,
        hypothesis=all(k in _FLAT_AT_INFINITY for k, _, _ in ends),
    )
    return Job(name, schedule, config_text="\n".join(lines), expect=expect)


_GENERATORS = {"zoo": zoo_jobs, "dsl-theta": cap_jobs, "dsl-ends": ends_jobs}


def generate(workload: str, seed: int, workdir: Path) -> list[tuple[Job, Path | None]]:
    """The workload's jobs for this seed, with config files written to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _GENERATORS[workload](rng)
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for job in jobs:
        path = None
        if job.config_text is not None:
            path = workdir / f"{job.label}.cfg"
            path.write_text(job.config_text)
        out.append((job, path))
    return out
