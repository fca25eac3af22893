import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bialgebroid import (AlgebroidError, AlgebroidStructure, FrameData, Form,
                         Multivector, Polynomial, bv_boundary, field_bracket,
                         interior_by_form, pairing, tangent_algebroid,
                         v_sharp, validate_algebroid)

from conftest import const, heisenberg, point_algebra, so3, solvable

R2 = ("x1", "x2")


def cotangent_linear():
    """Dual structure of the bivector x1 d1 ^ d2 on R^2, as a vector-side algebroid."""
    x1 = Polynomial.variable(R2, "x1")
    zero = Polynomial.zero(R2)
    one = Polynomial.const(R2, 1)
    return AlgebroidStructure(2, R2, [[zero, x1], [-x1, zero]],
                              {(1, 2): (one, zero)}, "vector")


VALID_STRUCTURES = [heisenberg, so3, solvable, cotangent_linear,
                    lambda: tangent_algebroid(R2)]


@pytest.mark.parametrize("factory", VALID_STRUCTURES)
def test_validate_accepts(factory):
    report = validate_algebroid(factory())
    assert report.ok
    assert report.witnesses == []


def test_validate_catches_jacobi_failure():
    bad = point_algebra(3, {(1, 2): (0, 0, 1), (1, 3): (1, 0, 0)})
    report = validate_algebroid(bad)
    assert not report.jacobi_ok
    kinds = {key[0] for key, _ in report.witnesses}
    assert kinds == {"jacobi"}


def test_validate_catches_anchor_failure():
    # anchor rows do not commute but all brackets vanish
    x1 = Polynomial.variable(R2, "x1")
    zero = Polynomial.zero(R2)
    one = Polynomial.const(R2, 1)
    bad = AlgebroidStructure(2, R2, [[one, zero], [zero, x1]], {}, "vector")
    lhs = field_bracket((one, zero), (zero, x1), R2)
    assert any(not c.is_zero() for c in lhs)
    report = validate_algebroid(bad)
    assert report.jacobi_ok and not report.anchor_morphism_ok
    assert report.witnesses[0][0] == ("anchor", 1, 2)


# -- differential ----------------------------------------------------------------


def form_eval(alg, theta, sections):
    """Multilinear evaluation theta(X_1, ..., X_k) through the pairing."""
    wedge = Multivector.scalar(alg.rank, alg.coordinates, 1)
    for x in sections:
        wedge = wedge.wedge(x)
    return pairing(theta, wedge)


def differential_oracle(alg, theta, sections):
    """(k+1)-linear formula for (d theta)(X_0, ..., X_k)."""
    out = Polynomial.zero(alg.coordinates)
    k1 = len(sections)
    for t in range(k1):
        rest = sections[:t] + sections[t + 1:]
        term = alg.anchor_apply(sections[t], form_eval(alg, theta, rest))
        out = out + (term if t % 2 == 0 else -term)
    for s in range(k1):
        for t in range(s + 1, k1):
            rest = [alg.schouten(sections[s], sections[t])] \
                + [x for i, x in enumerate(sections) if i not in (s, t)]
            term = form_eval(alg, theta, rest)
            out = out + (term if (s + t) % 2 == 0 else -term)
    return out


def section_samples(alg):
    coords = alg.coordinates
    out = [alg.basis_section(i) for i in range(1, alg.rank + 1)]
    if coords:
        f = Polynomial.variable(coords, coords[0])
        out.append(alg.basis_section(1).scaled(f))
        out.append(alg.basis_section(alg.rank).scaled(f * f))
    return out


FORM_DEGREES = [0, 1, 2]


@pytest.mark.parametrize("factory", [cotangent_linear, lambda: tangent_algebroid(R2), so3])
@pytest.mark.parametrize("degree", FORM_DEGREES)
def test_differential_matches_multilinear_formula(factory, degree):
    alg = factory()
    coords = alg.coordinates
    monos = [Polynomial.const(coords, 1)]
    if coords:
        monos.append(Polynomial.parse("x1*x2", coords))
    samples = section_samples(alg)
    for index in itertools.combinations(range(1, alg.rank + 1), degree):
        for f in monos:
            theta = Form.monomial(alg.rank, coords, index, f)
            d_theta = alg.differential(theta)
            for args in itertools.combinations(samples, degree + 1):
                assert pairing_eval_match(alg, theta, d_theta, list(args))


def pairing_eval_match(alg, theta, d_theta, args):
    return form_eval(alg, d_theta, args) == differential_oracle(alg, theta, args)


@pytest.mark.parametrize("factory", VALID_STRUCTURES)
def test_differential_squares_to_zero(factory):
    alg = factory()
    coords = alg.coordinates
    monos = [Polynomial.const(coords, 1)]
    if coords:
        monos += [Polynomial.variable(coords, v) for v in coords]
    for k in range(alg.rank + 1):
        for index in itertools.combinations(range(1, alg.rank + 1), k):
            for f in monos:
                theta = Form.monomial(alg.rank, coords, index, f)
                assert alg.differential(alg.differential(theta)).is_zero()


def test_differential_square_detects_jacobi_failure():
    bad = point_algebra(3, {(1, 2): (0, 0, 1), (1, 3): (1, 0, 0)})
    eps3 = Form.basis(3, (), 3)
    assert not bad.differential(bad.differential(eps3)).is_zero()


def test_differential_leibniz():
    alg = cotangent_linear()
    f = Polynomial.parse("x2^2", R2)
    theta = Form.monomial(2, R2, (2,), Polynomial.parse("x1", R2))
    df = alg.differential(Form.scalar(2, R2, f))
    lhs = alg.differential(theta.scaled(f))
    assert lhs == df.wedge(theta) + alg.differential(theta).scaled(f)


# -- Schouten bracket ---------------------------------------------------------------


def mv_samples(alg):
    coords = alg.coordinates
    one = Polynomial.const(coords, 1)
    out = [alg.basis_section(1),
           Multivector.monomial(alg.rank, coords, (1, 2), one)]
    if coords:
        f = Polynomial.parse("x1^2", coords)
        out.append(alg.basis_section(alg.rank).scaled(f))
        out.append(Multivector.monomial(alg.rank, coords, (1, 2),
                                        Polynomial.variable(coords, coords[-1])))
    if alg.rank >= 3:
        out.append(Multivector.monomial(alg.rank, coords, (2, 3), one))
    return out


@pytest.mark.parametrize("factory", [heisenberg, so3, cotangent_linear])
def test_schouten_graded_antisymmetry(factory):
    alg = factory()
    for u in mv_samples(alg):
        for v in mv_samples(alg):
            ku, kv = u.max_degree(), v.max_degree()
            # [u,v] = -(-1)^{(ku-1)(kv-1)} [v,u]
            sign = -1 if ((ku - 1) * (kv - 1)) % 2 == 0 else 1
            assert alg.schouten(u, v) == alg.schouten(v, u).scaled(sign)


@pytest.mark.parametrize("factory", [heisenberg, so3, cotangent_linear])
def test_schouten_wedge_leibniz(factory):
    alg = factory()
    samples = mv_samples(alg)
    for u in samples[:3]:
        k = u.max_degree()
        for v in samples[:3]:
            l = v.max_degree()
            for w in samples[:3]:
                lhs = alg.schouten(u, v.wedge(w))
                sign = -1 if ((k - 1) * l) % 2 else 1
                rhs = alg.schouten(u, v).wedge(w) + v.wedge(alg.schouten(u, w)).scaled(sign)
                assert lhs == rhs


@pytest.mark.parametrize("factory", [heisenberg, so3, cotangent_linear])
def test_schouten_graded_jacobi(factory):
    alg = factory()
    samples = mv_samples(alg)
    for u, v, w in itertools.product(samples[:3], repeat=3):
        a = u.max_degree() - 1
        b = v.max_degree() - 1
        c = w.max_degree() - 1
        t1 = alg.schouten(u, alg.schouten(v, w)).scaled(-1 if (a * c) % 2 else 1)
        t2 = alg.schouten(v, alg.schouten(w, u)).scaled(-1 if (b * a) % 2 else 1)
        t3 = alg.schouten(w, alg.schouten(u, v)).scaled(-1 if (c * b) % 2 else 1)
        assert (t1 + t2 + t3).is_zero()


def test_schouten_on_functions_is_anchor():
    alg = cotangent_linear()
    f = Polynomial.parse("x2^3", R2)
    u = alg.basis_section(1)
    expected = alg.anchor_apply(u, f)
    assert alg.schouten(u, Multivector.scalar(2, R2, f)) == Multivector.scalar(2, R2, expected)


def _full_sum_anchor_apply(alg, u, f):
    """rho(u) f = sum_i sum_a u^i rho_i^a d_a f over every index, zero or not."""
    out = Polynomial.zero(alg.coordinates)
    for i, row in enumerate(alg.anchor, start=1):
        for comp, name in zip(row, alg.coordinates):
            out = out + u.coefficient((i,)) * comp * f.diff(name)
    return out


def _r2_polynomials(max_size):
    monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(monomials, coefficients, max_size=max_size).map(
        lambda terms: Polynomial(R2, terms))


@settings(max_examples=40)
@given(st.lists(_r2_polynomials(2), min_size=4, max_size=4),
       st.lists(_r2_polynomials(2), min_size=2, max_size=2), _r2_polynomials(4))
def test_anchor_apply_matches_the_full_sum(anchor, coeffs, f):
    """Anchors with zero entries (max_size 2 draws many empty polynomials)."""
    alg = AlgebroidStructure(2, R2, [anchor[:2], anchor[2:]], {}, "vector")
    u = Multivector(2, R2, {(i,): c for i, c in enumerate(coeffs, start=1)})
    assert alg.anchor_apply(u, f) == _full_sum_anchor_apply(alg, u, f)
    for i in (1, 2):
        assert alg.differential(Form.scalar(2, R2, f)).coefficient((i,)) == \
            _full_sum_anchor_apply(alg, alg.basis_section(i), f)


def test_lie_derivative_is_pairing_derivation():
    alg = cotangent_linear()
    x = alg.basis_section(1).scaled(Polynomial.variable(R2, "x2"))
    y = alg.basis_section(2)
    theta = Form.monomial(2, R2, (1,), Polynomial.parse("x1 + x2", R2))
    lhs = alg.anchor_apply(x, pairing(theta, y))
    rhs = pairing(alg.lie_derivative(x, theta), y) + pairing(theta, alg.schouten(x, y))
    assert lhs == rhs


# -- boundary operator ---------------------------------------------------------------


def test_boundary_values_rank2_family():
    a, b = 1, 2
    alg = point_algebra(2, {(1, 2): (a, b)})
    frame = FrameData(2, ())
    assert bv_boundary(alg, frame, alg.basis_section(1)) == Multivector.scalar(2, (), b)
    assert bv_boundary(alg, frame, alg.basis_section(2)) == Multivector.scalar(2, (), -a)
    top = Multivector.monomial(2, (), (1, 2), const(1))
    assert bv_boundary(alg, frame, top).is_zero()


def test_boundary_values_heisenberg():
    alg = heisenberg()
    frame = FrameData(3, ())
    top12 = Multivector.monomial(3, (), (1, 2), const(1))
    assert bv_boundary(alg, frame, top12) == -alg.basis_section(3)
    for i in (1, 2, 3):
        assert bv_boundary(alg, frame, alg.basis_section(i)).is_zero()


@pytest.mark.parametrize("factory", VALID_STRUCTURES)
def test_boundary_squares_to_zero(factory):
    alg = factory()
    frame = FrameData(alg.rank, alg.coordinates)
    coords = alg.coordinates
    monos = [Polynomial.const(coords, 1)]
    if coords:
        monos += [Polynomial.parse("x1*x2", coords)]
    for k in range(alg.rank + 1):
        for index in itertools.combinations(range(1, alg.rank + 1), k):
            for f in monos:
                u = Multivector.monomial(alg.rank, coords, index, f)
                assert bv_boundary(alg, frame, bv_boundary(alg, frame, u)).is_zero()


@pytest.mark.parametrize("factory", [heisenberg, so3, cotangent_linear])
def test_boundary_generates_the_bracket(factory):
    # [u,v] = (-1)^k (b(u^v) - b(u)^v - (-1)^k u^b(v)) for u of degree k
    alg = factory()
    frame = FrameData(alg.rank, alg.coordinates)
    for u in mv_samples(alg):
        k = u.max_degree()
        sign = -1 if k % 2 else 1
        for v in mv_samples(alg):
            b = lambda w: bv_boundary(alg, frame, w)
            rhs = (b(u.wedge(v)) - b(u).wedge(v) - u.wedge(b(v)).scaled(sign)).scaled(sign)
            assert alg.schouten(u, v) == rhs


@pytest.mark.parametrize("factory", [heisenberg, so3, cotangent_linear])
def test_boundary_is_conjugate_to_differential(factory):
    # -V#(d alpha) = (-1)^k b(V# alpha) for alpha of degree k
    alg = factory()
    frame = FrameData(alg.rank, alg.coordinates)
    coords = alg.coordinates
    monos = [Polynomial.const(coords, 1)]
    if coords:
        monos.append(Polynomial.variable(coords, coords[0]))
    for k in range(alg.rank + 1):
        sign = -1 if k % 2 else 1
        for index in itertools.combinations(range(1, alg.rank + 1), k):
            for f in monos:
                alpha = Form.monomial(alg.rank, coords, index, f)
                lhs = -v_sharp(frame, alg.differential(alpha))
                rhs = bv_boundary(alg, frame, v_sharp(frame, alpha)).scaled(sign)
                assert lhs == rhs


@pytest.mark.parametrize("factory", [heisenberg, so3, cotangent_linear])
def test_lie_derivative_of_top_forms(factory):
    # L_u Omega = -(b u) Omega and L_u V = (b u) V for degree-1 u
    alg = factory()
    frame = FrameData(alg.rank, alg.coordinates)
    for u in section_samples(alg):
        div = bv_boundary(alg, frame, u).scalar_part()
        assert alg.lie_derivative(u, frame.omega) == frame.omega.scaled(-div)
        assert alg.schouten(u, frame.vee) == frame.vee.scaled(div)


@pytest.mark.parametrize("factory", [heisenberg, so3, cotangent_linear])
def test_boundary_interior_commutator(factory):
    # b iota_theta + iota_theta b = iota_{d theta} on multivectors
    alg = factory()
    frame = FrameData(alg.rank, alg.coordinates)
    coords = alg.coordinates
    thetas = [Form.basis(alg.rank, coords, 1), Form.basis(alg.rank, coords, alg.rank)]
    if coords:
        thetas.append(Form.monomial(alg.rank, coords, (2,),
                                    Polynomial.variable(coords, coords[0])))
    for theta in thetas:
        d_theta = alg.differential(theta)
        for u in mv_samples(alg):
            lhs = bv_boundary(alg, frame, interior_by_form(theta, u)) \
                + interior_by_form(theta, bv_boundary(alg, frame, u))
            assert lhs == interior_by_form(d_theta, u)


def test_structure_constructor_validation():
    with pytest.raises(AlgebroidError):
        AlgebroidStructure(2, (), [[], []], {(2, 1): (const(1), const(0))}, "vector")
    with pytest.raises(AlgebroidError):
        AlgebroidStructure(2, (), [[], []], {(1, 2): (const(1),)}, "vector")
    with pytest.raises(AlgebroidError):
        AlgebroidStructure(2, (), [[]], {}, "vector")
    with pytest.raises(AlgebroidError):
        AlgebroidStructure(2, (), [[], []], {}, "spinor")
