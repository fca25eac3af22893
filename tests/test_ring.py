from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bialgebroid import Polynomial, PolynomialError, divergence, field_bracket
from bialgebroid import ring
from bialgebroid.ring import apply_field, parse_rational

XY = ("x", "y")
XYZ = ("x1", "x2", "x3")


def poly(text, coords=XY):
    return Polynomial.parse(text, coords)


ROUND_TRIPS = [
    "0",
    "1",
    "-1",
    "x",
    "-x + 3",
    "x^2 - 1/2*y",
    "-y^3 + 2*x*y + 1/3",
    "x^4 + x^2*y^2 - 7*y",
]


@pytest.mark.parametrize("text", ROUND_TRIPS)
def test_str_parse_round_trip(text):
    p = poly(text)
    assert str(p) == text
    assert poly(str(p)) == p


PARSE_EQUIVALENTS = [
    ("x + x", "2*x"),
    ("(x + y)*(x - y)", "x^2 - y^2"),
    ("-(x - y)", "-x + y"),
    ("3/6", "1/2"),
    ("x*(y + 1) - x*y", "x"),
    ("(x + 1)^3", "x^3 + 3*x^2 + 3*x + 1"),
    ("2^3", "8"),
]


@pytest.mark.parametrize("text,expected", PARSE_EQUIVALENTS)
def test_parse_normalizes(text, expected):
    assert str(poly(text)) == expected


BAD_INPUTS = [
    "x +",
    "* x",
    "x y",
    "(x",
    "z",
    "1/0",
    "x^",
    "x^-2",
    "",
    "\u0661 + x",  # a non-ASCII digit
    "1" * 5000,  # longer than Python's default 4300-digit int() limit
    "1/" + "1" * 5000,
    "x^" + "1" * 5000,
    7,  # not text at all
]


def long_text_id(value):
    """A short test id for the 5000-character inputs; pytest's own for the rest."""
    if isinstance(value, str) and len(value) > 40:
        return f"{value[:4]}...{len(value)}-chars"
    return None


@pytest.mark.parametrize("text", BAD_INPUTS, ids=long_text_id)
def test_parse_rejects(text):
    with pytest.raises(PolynomialError):
        poly(text)


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), ("-3", Fraction(-3)), ("+2", Fraction(2)), ("0", Fraction(0)),
    ("1/2", Fraction(1, 2)), ("-7/3", Fraction(-7, 3)), (" 6 / 4 ", Fraction(3, 2)),
])
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["", "1/0", "1.5", "1e3", "x", "1/-2", "--1", "1/2/3",
                                  "2*3", "(1)", "\u0663", "1" * 5000], ids=long_text_id)
def test_parse_rational_rejects(text):
    with pytest.raises(PolynomialError):
        parse_rational(text)


def test_parse_error_carries_position():
    try:
        poly("x + )")
    except PolynomialError as exc:
        assert exc.position == 4
    else:
        raise AssertionError("no error raised")


def test_parse_bounds_parenthesis_nesting():
    assert poly("(" * 100 + "x" + ")" * 100) == poly("x")
    with pytest.raises(PolynomialError) as caught:
        poly("(" * 101 + "x" + ")" * 101)
    assert caught.value.position == 100
    with pytest.raises(PolynomialError):
        poly("(" * 3000 + "x" + ")" * 3000)


def test_parse_bounds_powers():
    """Powers up to the fixed bounds parse; one past any bound is refused at
    the exponent, past the degree or term bound before anything is
    multiplied."""
    assert poly("x^64").total_degree() == ring._MAX_POWER_DEGREE == 64
    assert len(poly("(x + 1)^64").terms) == 65
    # the multinomial count C(t + 1, 2) of a square of t terms: 1953 for
    # t = 62, 2016 for t = 63
    monos = [f"x^{i}*y^{d - i}" for d in range(11) for i in range(d + 1)]
    assert len(poly(f"({' + '.join(monos[:62])})^2").terms) <= ring._MAX_POWER_TERMS == 2000
    with pytest.raises(PolynomialError):
        poly(f"({' + '.join(monos[:63])})^2")
    assert poly("2^4096") == poly(str(2 ** ring._MAX_POWER_BITS))
    assert poly("(-1/2)^4096") == Polynomial.const(("x", "y"), Fraction(1, 2 ** 4096))
    assert poly("1^" + "9" * 100) == poly("1") and poly("0^" + "9" * 100) == poly("0")
    assert poly("0^0") == poly("1") and poly("(-1)^" + "9" * 4000) == poly("-1")
    # a power is measured by its actual bits, as a product's factors are:
    # 3^2584 has 4095 of them, 3^2585 has 4097; with m = 2^65 - 1,
    # 64 * floor(log2 m) = 4096 but m^64 has 4160, with or without a factor x
    # outside the power
    assert poly("(1/3)^2584") == Polynomial.const(("x", "y"), Fraction(1, 3 ** 2584))
    assert poly("x*(1/3)^2584") == poly("x") * poly("(1/3)^2584")
    for text, position in [("x^65", 2), ("(x*y)^33", 6), ("(x + y + 1)^62", 12),
                           ("2^4097", 2), ("(1/3)^4097", 6), ("(1/3)^2585", 6),
                           ("(1/3)^4096", 6), ("x^" + "9" * 4000, 2),
                           ("((x + 1)^8)^9", 12), ("x + (x + y + 1)^100000", 16),
                           ("(x + 1/36893488147419103231)^64", 29),
                           ("x*(x + 1/36893488147419103231)^64", 31)]:
        with pytest.raises(PolynomialError) as caught:
            poly(text)
        assert caught.value.position == position, text


def test_parse_bounds_products():
    """Products up to the same bounds parse; one past any bound is refused
    at the '*', before the factors are multiplied."""
    assert poly("x^32*x^32") == poly("x^64")
    monos = [f"x^{i}*y^{d - i}" for d in range(12) for i in range(d + 1)]

    def total(k):
        return f"({' + '.join(monos[:k])})"

    assert len(poly(f"{total(40)}*{total(50)}").terms) <= ring._MAX_POWER_TERMS
    assert poly("2^2048*2^2048") == poly("2^4096")
    assert poly("(2^2048*x)^2") == poly("2^4096*x^2")
    for text, position in [("x^32*x^33", 4), ("2^2048*2^2049", 6), ("(2^2048*x)^3", 11),
                           ("2^4096*x*2", 8), ("x*(1/2)^4096*2", 12),
                           (f"{total(41)}*{total(49)}", len(total(41)))]:
        with pytest.raises(PolynomialError) as caught:
            poly(text)
        assert caught.value.position == position, text


def exponents(coords):
    return st.tuples(*[st.integers(min_value=0, max_value=3) for _ in coords])


def rationals():
    return st.fractions(min_value=-4, max_value=4, max_denominator=6)


def polynomials(coords=XY):
    return st.dictionaries(exponents(coords), rationals(), max_size=5).map(
        lambda terms: Polynomial(coords, {k: Fraction(v) for k, v in terms.items()}))


@given(polynomials())
def test_round_trip_random(p):
    assert Polynomial.parse(str(p), XY) == p


@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p - p == Polynomial.zero(XY)


@given(polynomials(), polynomials())
def test_diff_is_a_derivation(p, q):
    for name in XY:
        lhs = (p * q).diff(name)
        assert lhs == p.diff(name) * q + p * q.diff(name)


@given(polynomials(), polynomials())
def test_evaluate_is_a_homomorphism(p, q):
    point = {"x": Fraction(2, 3), "y": Fraction(-1, 2)}
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


@given(polynomials(), st.integers(min_value=0, max_value=4))
def test_pow_matches_repeated_product(p, k):
    expected = Polynomial.const(XY, 1)
    for _ in range(k):
        expected = expected * p
    assert p ** k == expected


def test_total_degree_and_constants():
    assert Polynomial.zero(XY).total_degree() == -1
    assert poly("5").total_degree() == 0
    assert poly("x*y^2").total_degree() == 3
    assert poly("7").constant_value() == 7
    assert not poly("x").is_constant()


def test_scalar_coercion():
    p = poly("x")
    assert 2 * p == poly("2*x") == p * 2
    assert p * Fraction(1, 2) == poly("1/2*x")
    assert p + 0 * p == p


def test_divergence_oracle():
    comps = tuple(Polynomial.parse(t, XYZ) for t in ("x1^2", "x1*x2", "x3"))
    assert divergence(comps, XYZ) == Polynomial.parse("3*x1 + 1", XYZ)


def test_field_bracket_oracle():
    # [x d/dx, d/dy] = 0 and [x d/dy, y d/dx] = x d/dx - y d/dy
    y1 = (poly("x"), poly("0"))
    y2 = (poly("0"), poly("1"))
    assert field_bracket(y1, y2, XY) == (poly("0"), poly("0"))
    y3 = (poly("0"), poly("x"))
    y4 = (poly("y"), poly("0"))
    assert field_bracket(y3, y4, XY) == (poly("x"), poly("-y"))


def _full_sum_field_bracket(y, z, variables):
    """[Y, Z] by the full sum over every component, zero or not."""
    out = []
    for b in range(len(variables)):
        acc = Polynomial.zero(variables)
        for a, name in enumerate(variables):
            acc = acc + y[a] * z[b].diff(name) - z[a] * y[b].diff(name)
        out.append(acc)
    return tuple(out)


def fields(coords=XYZ):
    """Base vector fields whose components are often zero."""
    component = st.one_of(st.just(Polynomial.zero(coords)), polynomials(coords))
    return st.tuples(*[component] * len(coords))


@settings(max_examples=60)
@given(fields(), fields(), polynomials(XYZ))
def test_shared_field_helpers_match_the_full_sums(y, z, f):
    assert apply_field(y, f, XYZ) == sum(
        (c * f.diff(name) for c, name in zip(y, XYZ)), Polynomial.zero(XYZ))
    assert field_bracket(y, z, XYZ) == _full_sum_field_bracket(y, z, XYZ)


def _nonzero_products(y, f):
    """The products Y^a d_a f with neither factor zero."""
    return sum(1 for c, name in zip(y, XYZ) if c and f.diff(name))


@settings(max_examples=30)
@given(fields(), fields(), polynomials(XYZ))
def test_a_zero_component_costs_no_product(y, z, f):
    calls = []
    direct = Polynomial.__mul__

    def counting(self, other):
        calls.append(other)
        return direct(self, other)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(Polynomial, "__mul__", counting)
        monkeypatch.setattr(Polynomial, "__rmul__", counting)
        apply_field(y, f, XYZ)
        assert len(calls) == _nonzero_products(y, f)
        del calls[:]
        field_bracket(y, z, XYZ)
        assert len(calls) == sum(_nonzero_products(y, zb) + _nonzero_products(z, yb)
                                 for yb, zb in zip(y, z))


@given(polynomials())
def test_field_bracket_antisymmetry(p):
    y1 = (p, poly("1"))
    y2 = (poly("y"), p * p)
    forward = field_bracket(y1, y2, XY)
    backward = field_bracket(y2, y1, XY)
    assert forward == tuple(-c for c in backward)
