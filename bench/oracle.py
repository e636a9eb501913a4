"""Output checks that stay off trisym's certification path.

Solutions are checked by evaluating the Ricci differences in floating point
with mpmath at high precision, and sweep solution counts against the float
grid oracle of ``trisym.checks``. Nothing here is timed.

A solution is a tuple of three coordinates, each one of
``("rational", value)``, ``("surd", p, q, d)`` for p + q*sqrt(d), or
``("interval", lo, hi, poly)`` for the unique root of ``poly`` (ascending
coefficients) in (lo, hi).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

# the float grid oracle is trusted where every a_i lies in this closed range
GRID_SAFE = (Fraction(1, 8), Fraction(9, 20))


def _mpf(v: Fraction):
    return mpmath.mpf(v.numerator) / v.denominator


def _root_in(lo: Fraction, hi: Fraction, poly: list[Fraction]):
    """The root of ``poly`` in (lo, hi), located by mpmath's bracketing solver."""
    coeffs = [_mpf(c) for c in reversed(poly)]
    a, b = _mpf(lo), _mpf(hi)
    if mpmath.sign(mpmath.polyval(coeffs, a)) * mpmath.sign(mpmath.polyval(coeffs, b)) >= 0:
        raise ValueError(f"poly does not change sign on ({lo}, {hi})")
    x = mpmath.findroot(lambda t: mpmath.polyval(coeffs, t), (a, b), solver="anderson")
    if not a <= x <= b:
        raise ValueError(f"root {mpmath.nstr(x, 10)} escapes ({lo}, {hi})")
    return x


def _coordinate(c):
    kind = c[0]
    if kind == "rational":
        return _mpf(c[1])
    if kind == "surd":
        return _mpf(c[1]) + _mpf(c[2]) * mpmath.sqrt(c[3])
    return _root_in(c[1], c[2], c[3])


def residual_error(a, solution, tol: Fraction) -> str | None:
    """None when the Ricci differences at ``solution`` are below ``tol``."""
    digits = len(str(tol.denominator)) - len(str(tol.numerator)) + 1
    with mpmath.workdps(2 * digits + 60):
        try:
            x = [_coordinate(c) for c in solution]
        except ValueError as exc:
            return str(exc)
        if any(v <= 0 for v in x):
            return "nonpositive coordinate"
        av = [_mpf(Fraction(v)) for v in a]

        def ricci(i, j, k):
            return 1 / (2 * x[i]) + av[i] / 2 * (x[i] / (x[j] * x[k]) - x[k] / (x[i] * x[j]) - x[j] / (x[i] * x[k]))

        r = (ricci(0, 1, 2), ricci(1, 0, 2), ricci(2, 0, 1))
        worst = max(abs(r[0] - r[1]), abs(r[0] - r[2]), abs(r[1] - r[2]))
        if worst >= _mpf(tol):
            return f"Ricci difference {mpmath.nstr(worst, 5)} >= tol {tol}"
    return None


def solutions_error(a, solutions, tol: Fraction) -> str | None:
    for n, sol in enumerate(solutions):
        err = residual_error(a, sol, tol)
        if err:
            return f"solution {n}: {err}"
    return None


def grid_count_error(a, count: int) -> str | None:
    """Compare ``count`` with the float grid oracle inside its safe range."""
    lo, hi = GRID_SAFE
    if not all(lo <= Fraction(v) <= hi for v in a):
        return None
    from trisym.checks import grid_count_oracle

    expected = grid_count_oracle(a)
    if expected != count:
        return f"{count} solutions, grid oracle finds {expected}"
    return None


def decode_coordinate(c: dict):
    if c["type"] == "rational":
        return ("rational", Fraction(c["value"]))
    if c["type"] == "surd":
        return ("surd", Fraction(c["p"]), Fraction(c["q"]), int(c["d"]))
    return ("interval", Fraction(c["lo"]), Fraction(c["hi"]), [Fraction(v) for v in c["poly"]])
