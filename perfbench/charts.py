"""Chart documents and seeded inputs for the benchmark.

The charts are written out here, in the program's document format, so
that the benchmark owns its inputs and knows their closed forms; the
program only ever receives the document text.
"""

from __future__ import annotations

import math

import numpy as np

# f = g(X,X)/2 = -1 + cos(2*pi*(x - shift))/4 on the null-coordinate torus.
# With shift = 0 this is the catalog's torus_family chart.
TORUS_TEMPLATE = """
[manifold]
name = {name}
dim = 2
coords = x, y
range.x = 0, 1
range.y = 0, 1
periodic = x, y
signature = lorentzian

[metric]
g.0.1 = "1"
g.1.1 = "2*(-1 + cos(2*pi*{arg})/4)"

[field.X]
components = "0", "1"
"""

# An offset that puts the torus extrema between the nodes of any grid the
# benchmark uses.  It is fixed, not seeded: the refinement fault it exposes
# (see README) must fail on every run for the failed share to be constant.
TORUS_OFFSET = 0.0137

SCHWARZSCHILD_TEMPLATE = """
[manifold]
name = schwarzschild_exterior
dim = 4
coords = t, r, theta, phi
range.t = 0, 10
range.r = 2.5, 20
range.theta = 0, 3.141592653589793
range.phi = 0, 6.283185307179586
periodic = phi
signature = lorentzian

[params]
m = {m!r}

[metric]
g.0.0 = "-(1 - 2*m/r)"
g.1.1 = "1/(1 - 2*m/r)"
g.2.2 = "r^2"
g.3.3 = "r^2*sin(theta)^2"

[field.X]
components = "1", "0", "0", "0"
"""


def torus_document(shift: float = 0.0) -> str:
    if shift == 0.0:
        return TORUS_TEMPLATE.format(name="torus_family", arg="x")
    return TORUS_TEMPLATE.format(name="torus_shifted", arg=f"(x - {shift!r})")


def schwarzschild_mass(seed: int) -> float:
    """Seeded mass; r > 2.5 keeps every grid node outside the horizon."""
    return float(np.random.default_rng([seed, 1]).uniform(0.5, 1.0))


def schwarzschild_document(m: float) -> str:
    return SCHWARZSCHILD_TEMPLATE.format(m=m)


# ---------------------------------------------------------------------------
# Generated 4-D Lorentzian charts for the parse/differentiate workload
# ---------------------------------------------------------------------------

GEN_COORDS = ("t", "x", "y", "z")
GEN_RANGES = {"t": (0.0, 1.0), "x": (1.0, 2.0), "y": (0.0, 1.0), "z": (0.0, 1.0)}
GEN_PERIODIC = ("t", "y")
DIAG_TERMS = 60
OFFDIAG_TERMS = 15
# Each term is bounded by 16*|c| <= 16 on the chart (coordinates lie in
# [0, 2], powers are at most 3, |sin|, |cos|, exp(-.) <= 1), so these scales keep
# the diagonal within 1 of +-3 and each off-diagonal entry within 0.3:
# by Gershgorin the signature is (-,+,+,+) everywhere.
DIAG_SCALE = 1.0 / (16 * DIAG_TERMS)
OFFDIAG_SCALE = 0.3 / (16 * OFFDIAG_TERMS)


# Term shapes, taken in turn so that every generated chart has the same
# tree sizes and only the numbers in them depend on the seed.  Factors of
# 1 are avoided: the expression constructors fold them away.
_SHAPES = ("{c}*{fn}({a}*{i} + {b}*{j})", "{c}*{i}^{p}*{fn}({b}*{j})",
           "{c}*exp(-{a}*{i}/4)*{j}", "{c}*{i}*{j}^{p}")
_PAIRS = [(i, j) for i in GEN_COORDS for j in GEN_COORDS if i != j]


def _term(rng: np.random.Generator, k: int) -> str:
    i, j = _PAIRS[k % len(_PAIRS)]
    c = float(rng.uniform(0.2, 1.0)) * (1 if rng.integers(2) else -1)
    a, b = (int(v) for v in rng.integers(2, 6, size=2))
    return _SHAPES[k % len(_SHAPES)].format(
        c=f"{c:.4f}", fn=("sin", "cos")[k // len(_SHAPES) % 2], a=a, b=b, i=i, j=j,
        p=2 + k // len(_SHAPES) % 2)


def generated_entries(seed: int, index: int) -> dict[tuple[int, int], str]:
    """Upper-triangle metric entry texts of generated chart ``index``."""
    rng = np.random.default_rng([seed, 2, index])
    out = {}
    for i in range(4):
        for j in range(i, 4):
            if i == j:
                base, n, scale = ("-3" if i == 0 else "3"), DIAG_TERMS, DIAG_SCALE
            else:
                base, n, scale = "0", OFFDIAG_TERMS, OFFDIAG_SCALE
            terms = " + ".join(_term(rng, k) for k in range(n))
            out[(i, j)] = f"{base} + {scale!r}*({terms})"
    return out


def generated_document(entries: dict[tuple[int, int], str], index: int) -> str:
    lines = ["[manifold]", f"name = generated_{index}", "dim = 4",
             f"coords = {', '.join(GEN_COORDS)}"]
    for c in GEN_COORDS:
        lo, hi = GEN_RANGES[c]
        lines.append(f"range.{c} = {lo!r}, {hi!r}")
    lines += [f"periodic = {', '.join(GEN_PERIODIC)}", "signature = lorentzian", "",
              "[metric]"]
    lines += [f'g.{i}.{j} = "{text}"' for (i, j), text in sorted(entries.items())]
    lines += ["", "[field.X]", 'components = "1", "0", "0", "0"', ""]
    return "\n".join(lines)


def generated_points(seed: int, index: int, count: int) -> np.ndarray:
    """Interior check points of generated chart ``index``."""
    rng = np.random.default_rng([seed, 3, index])
    cols = [rng.uniform(lo + 0.05, hi - 0.05, size=count)
            for lo, hi in (GEN_RANGES[c] for c in GEN_COORDS)]
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# Seeded interior points for the pointwise workload
# ---------------------------------------------------------------------------

def hopf_point(rng: np.random.Generator) -> np.ndarray:
    # away from eta = 0 and pi/2, where the fiber coordinates degenerate
    return np.array([rng.uniform(0.2, math.pi / 2 - 0.2),
                     rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)])


def schwarzschild_point(rng: np.random.Generator) -> np.ndarray:
    # away from the polar axis, where the chart degenerates
    return np.array([rng.uniform(0.0, 10.0), rng.uniform(3.0, 15.0),
                     rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.0, 2 * math.pi)])


def torus3_point(rng: np.random.Generator) -> np.ndarray:
    return np.array([rng.uniform(-0.9, 0.9), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)])
