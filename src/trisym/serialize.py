"""Deterministic JSON encoding of catalog and solver output.

Schema versioning: SCHEMA_VERSION bumps whenever any payload shape changes.
Exact rationals travel as "p/q" strings, quadratic surds as {p, q, d}
objects (value = p + q*sqrt(d)), intervals as {lo, hi, poly} with the
certifying polynomial in ascending coefficient order.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import Any

from .cases import SpaceCase
from .coeffs import IsotropyData
from .einstein import EinsteinSolution, RootCoordinate
from .polysolve import Polynomial, exact_rational
from .surd import QuadraticSurd

SCHEMA_VERSION = "1.0"


def _digits(n: int) -> str:
    """``str(n)``; ``Decimal`` writes an int past the interpreter's int-to-str digit limit (4,300 by default)."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _ratio(n: int, d: int) -> str:
    """The "p/q" form of n / d for integers with d > 0, reduced by one gcd."""
    g = gcd(n, d)
    return f"{_digits(n // g)}/{_digits(d // g)}"


def encode_fraction(v: Fraction) -> str:
    """The "p/q" form of the rational ``v``; a float is refused by name."""
    v = exact_rational(v, "value")
    return f"{_digits(v.numerator)}/{_digits(v.denominator)}"


def encode_polynomial(p: Polynomial) -> list[str]:
    """The coefficients of ``p`` = content * ints, each written from the integers c n over d for content n / d."""
    n, d = p.content.numerator, p.content.denominator
    return [_ratio(c * n, d) for c in p.ints]


def encode_coordinate(c) -> dict[str, Any]:
    if isinstance(c, RootCoordinate):
        iv = c.interval
        return {
            "type": "interval",
            "lo": _ratio(iv.a, iv.m),
            "hi": _ratio(iv.b, iv.m),
            "poly": encode_polynomial(iv.poly),
        }
    if isinstance(c, QuadraticSurd):
        return {
            "type": "surd",
            "p": encode_fraction(c.p),
            "q": encode_fraction(c.q),
            "d": c.d,
        }
    return {"type": "rational", "value": encode_fraction(c)}


def encode_solution(sol: EinsteinSolution) -> dict[str, Any]:
    return {
        "branch": sol.branch,
        "x": [encode_coordinate(c) for c in sol.x],
        "einstein_constant_sign": sol.einstein_constant_sign,
        "residual_bound": encode_fraction(sol.residual_bound),
    }


def encode_case(case: SpaceCase, data: IsotropyData | None = None) -> dict[str, Any]:
    dim_h, d1, d2, d3 = case.dims
    out: dict[str, Any] = {
        "tag": case.inp_tag,
        "type_label": case.type_label,
        "ambient": f"{case.family}{case.rank}",
        "params": dict(case.params),
        "isotropy_type": case.isotropy_type,
        "dim_h": dim_h,
        "dims": [d1, d2, d3],
        "isomorphic_summands": case.isomorphic_summands,
    }
    if data is not None:
        out["gammas"] = [encode_fraction(g) for g in data.gammas]
        out["casimirs"] = [encode_fraction(c) for c in data.casimirs]
        out["A"] = encode_fraction(data.A)
        out["a"] = [encode_fraction(v) for v in data.a]
    return out


def envelope(command: str, payload: Any, warnings: list[str] | None = None) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "payload": payload,
        "warnings": warnings or [],
    }


def to_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def render_table(rows: list[list[str]], header: list[str]) -> str:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*(str(v) for v in row)) for row in rows)
    return "\n".join(lines) + "\n"


def render_csv(rows: list[list[str]], header: list[str]) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()
