"""Correctness checks the benchmark applies to every trial it runs.

Each check rebuilds the trial's inputs from its ``sub_seed`` through the
public ``generate_pair``/``generate_kernel`` and compares the reported value
with a closed form computed here with numpy, at the suites' own relative
tolerance.  At p = 2 the two-argument norms equal the Gram root and every
operator or ratio norm equals the top singular value of the weight-symmetrized
kernel; other exponents have no cheap closed form and rely on the trial's own
pass flag.
"""

from __future__ import annotations

import math

import numpy as np

from lp2dual import generate_kernel, generate_pair, make_rule

TOL = 1e-6

_GAHLER_SUITES = ("axioms", "sandwich_2_2", "geometry_volume")


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _top_singular_value(samples: np.ndarray, weights: np.ndarray) -> float:
    root = np.sqrt(weights)
    return float(np.linalg.svd(root[:, None] * samples * root[None, :], compute_uv=False)[0])


def check_trial(suite: str, grid: int, trial: dict) -> list[str]:
    """Names of the oracle checks this trial fails (empty when all hold)."""
    p = trial["p"]
    values = trial["values"]
    failures = []
    if not trial["pass"]:
        failures.append("trial_pass")
    if p != 2.0:
        return failures
    rule = make_rule("midpoint", grid)
    w = rule.weights
    if suite in _GAHLER_SUITES:
        x1, x2 = generate_pair(trial["sub_seed"], rule)
        a, b = x1.samples, x2.samples
        gram = float(w @ (a * a)) * float(w @ (b * b)) - float(w @ (a * b)) ** 2
        if _rel_gap(values["gahler"], math.sqrt(max(gram, 0.0))) > TOL:
            failures.append("p2_gahler_gram_root")
    elif suite == "g_properties":
        x, y = generate_pair(trial["sub_seed"], rule)
        if _rel_gap(values["g_xy"], float(w @ (x.samples * y.samples))) > TOL:
            failures.append("p2_g_inner_product")
    elif suite == "isometry_2_1":
        kern = generate_kernel(trial["sub_seed"], rule, antisymmetric=False)
        sv = _top_singular_value(kern.samples, w)
        for name in ("fnorm_21", "yq_norm"):
            if _rel_gap(values[name], sv) > TOL:
                failures.append(f"p2_svd_{name}")
    elif suite == "functional_bounds_2_3_2_6":
        kern = generate_kernel(trial["sub_seed"], rule, antisymmetric=True)
        sv = _top_singular_value(kern.samples, w)
        for name in ("fnorm_22_G", "fnorm_22_H"):
            if _rel_gap(values[name], sv) > TOL:
                failures.append(f"p2_svd_{name}")
    return failures
