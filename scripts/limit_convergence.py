#!/usr/bin/env python3
"""How fast does the boundary-turning limit estimate converge?

For the paraboloid the true limit is 0 while the raw samples decay only
like h^(-1/2); this script compares the raw last sample against the
extrapolated estimate as the doubling schedule deepens.  The analogous
table for the capped cone shows the exact-beyond-the-cap case where the
raw sample is already the answer.
"""

import math
import sys

from cvlab.quadrature import estimate_tail_limit
from cvlab.sweep import sweep_samples
from cvlab.zoo import zoo_entry


def study(name: str, true_limit: float, depths) -> None:
    model = zoo_entry(name).model
    print(f"\n{name}: true limit {true_limit:.6g}")
    print(f"{'h_max':>8} {'raw tail':>12} {'estimate':>12} {'bound':>10} {'true err':>10}")
    for depth in depths:
        heights = [2.0**k for k in range(depth + 1)]
        samples = [(s.h, s.lam) for s in sweep_samples(model, heights)]
        limit, bound = estimate_tail_limit(samples, 0.0, noise=1e-9)
        print(
            f"{heights[-1]:>8g} {samples[-1][1]:>12.4e} {limit:>12.4e}"
            f" {bound:>10.2e} {abs(limit - true_limit):>10.2e}"
        )


def main() -> int:
    study("paraboloid", 0.0, (4, 6, 8, 10, 12))
    study("capped-cone", math.pi, (4, 6, 8))
    return 0


if __name__ == "__main__":
    sys.exit(main())
