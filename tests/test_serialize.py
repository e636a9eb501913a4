import json
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trisym.cases import make_case
from trisym.coeffs import coefficients_for_case
from trisym.einstein import RootCoordinate, refine_solution, solve_case, solve_einstein
from trisym.errors import TrisymError
from trisym.polysolve import IsolatingInterval, Polynomial
from trisym.serialize import (
    SCHEMA_VERSION,
    encode_case,
    encode_coordinate,
    encode_fraction,
    encode_solution,
    envelope,
    render_csv,
    render_table,
    to_json,
)
from trisym.surd import QuadraticSurd


def test_fraction_encoding():
    assert encode_fraction(F(3, 7)) == "3/7"
    assert encode_fraction(F(2)) == "2/1"
    assert encode_fraction(F(-5, 10)) == "-1/2"


def test_fraction_encoding_reads_rationals_only(fractions_made):
    v = F(3, 7)
    assert fractions_made(lambda: encode_fraction(v)) == 0  # a Fraction passes through
    assert (encode_fraction(2), encode_fraction("6/4")) == ("2/1", "3/2")
    # a float is a binary fraction: 0.1 would be written 3602879701896397/36028797018963968
    with pytest.raises(TrisymError, match=r"^value 0\.1 is a float; give an int, a Fraction or a 'p/q' string$"):
        encode_fraction(0.1)


def test_fraction_encoding_past_the_int_to_str_limit():
    # the residual bound at 10^-1003 has a denominator of about 6,060 digits, past str()'s 4,300
    sol = refine_solution(solve_einstein((F(1, 7), F(2, 9), F(3, 11)))[0], F(1, 10**1003))
    n, d = encode_solution(sol)["residual_bound"].split("/")
    assert len(d) > 4300
    assert (int(Decimal(n)), int(Decimal(d))) == (sol.residual_bound.numerator, sol.residual_bound.denominator)


def _fraction_path(iv) -> dict:
    """An interval coordinate written through ``Fraction``s and ``Decimal``, as its ends and coefficients read."""

    def written(v: F) -> str:
        return f"{Decimal(v.numerator)}/{Decimal(v.denominator)}"

    return {"type": "interval", "lo": written(iv.lo), "hi": written(iv.hi), "poly": [written(c) for c in iv.poly.coeffs]}


@given(
    st.integers(-(10**40), 10**40),
    st.integers(1, 10**40),
    st.integers(1, 10**40),
    st.lists(st.fractions(max_denominator=10**12), min_size=1, max_size=6).filter(any),
)
def test_interval_written_from_its_integers(a, width, m, coeffs):
    # the ends a/m and b/m of a box and each coefficient c n / d of content n / d, reduced by one gcd each
    iv = IsolatingInterval(a, a + width, m, Polynomial(coeffs))
    assert encode_coordinate(RootCoordinate(iv)) == _fraction_path(iv)


def test_integer_encoder_past_the_int_to_str_limit():
    # ends and coefficients of about 6,000 digits, past the 4,300 that str() writes by default
    big = 7**7100 + 1
    iv = IsolatingInterval(big, big + 3, 3 * 7**7100, Polynomial((F(-big, 7**7099), F(1, 2 * 7**7098))))
    doc = encode_coordinate(RootCoordinate(iv))
    assert len(doc["lo"]) > 2 * 4300 and len(doc["poly"][0]) > 2 * 4300
    assert doc == _fraction_path(iv)


def test_coordinate_encodings_cover_all_kinds():
    rational = encode_coordinate(F(4, 5))
    assert rational == {"type": "rational", "value": "4/5"}

    surd = encode_coordinate(QuadraticSurd(F(15, 14), F(-1, 14), 29))
    assert surd == {"type": "surd", "p": "15/14", "q": "-1/14", "d": 29}

    sols = solve_einstein((F(1, 4), F(1, 8), F(7, 24)))
    iv = encode_coordinate(sols[0].x[2])
    assert iv["type"] == "interval"
    assert F(iv["lo"]) < F(iv["hi"])
    assert len(iv["poly"]) == 5  # quartic, ascending coefficients


def test_solution_encoding_shape():
    result = solve_case(make_case("E8-I"))
    doc = encode_solution(result.solutions[0])
    assert set(doc) == {"branch", "x", "einstein_constant_sign", "residual_bound"}
    assert doc["x"][0] == {"type": "rational", "value": "1/1"}
    assert doc["x"][1]["type"] == "surd"


def test_case_encoding_with_and_without_coefficients():
    case = make_case("F4-II")
    bare = encode_case(case)
    assert bare["dims"] == [20, 8, 8] and "a" not in bare
    rich = encode_case(case, coefficients_for_case(case))
    assert rich["a"] == ["1/9", "5/18", "5/18"]
    assert rich["gammas"] == ["7/9", "4/9", "4/9"]


def test_envelope_and_json_determinism():
    doc = envelope("demo", {"b": 1, "a": 2})
    assert doc["schema_version"] == SCHEMA_VERSION
    text = to_json(doc)
    assert text == to_json(envelope("demo", {"a": 2, "b": 1}))  # key order irrelevant
    assert text.endswith("\n")
    json.loads(text)


def test_table_and_csv_renderers():
    rows = [["x", "1"], ["yy", "22"]]
    table = render_table(rows, ["col", "val"])
    assert "col" in table and "yy" in table
    csv_text = render_csv(rows, ["col", "val"])
    assert csv_text.splitlines() == ["col,val", "x,1", "yy,22"]
