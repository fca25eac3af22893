import itertools
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from bialgebroid import (AlgebroidError, AlgebroidStructure, FrameData, Form,
                         Multivector, Polynomial, bv_boundary, field_bracket,
                         interior_by_form, interior_by_multivector, omega_sharp, pairing,
                         retype, tangent_algebroid, v_sharp, validate_algebroid)
from bialgebroid.ring import apply_field

from conftest import (const, heisenberg, log_canonical_double, of_degree, point_algebra, so3,
                      solvable)

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


def rho(alg, u, f):
    """rho(u) f for a degree-1 section u and a base function f."""
    return apply_field(alg.anchor_field(u), f, alg.coordinates)


def differential_oracle(alg, theta, sections):
    """(k+1)-linear formula for (d theta)(X_0, ..., X_k)."""
    out = Polynomial.zero(alg.coordinates)
    k1 = len(sections)
    for t in range(k1):
        rest = sections[:t] + sections[t + 1:]
        term = rho(alg, sections[t], form_eval(alg, theta, rest))
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
    expected = rho(alg, u, f)
    assert alg.schouten(u, Multivector.scalar(2, R2, f)) == Multivector.scalar(2, R2, expected)


def _full_sum_rho(alg, u, f):
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
def test_anchor_field_matches_the_full_sum(anchor, coeffs, f):
    """Anchors with zero entries (max_size 2 draws many empty polynomials)."""
    alg = AlgebroidStructure(2, R2, [anchor[:2], anchor[2:]], {}, "vector")
    u = Multivector(2, R2, {(i,): c for i, c in enumerate(coeffs, start=1)})
    assert rho(alg, u, f) == _full_sum_rho(alg, u, f)
    for i in (1, 2):
        assert alg.differential(Form.scalar(2, R2, f)).coefficient((i,)) == \
            _full_sum_rho(alg, alg.basis_section(i), f)


def test_lie_derivative_is_pairing_derivation():
    alg = cotangent_linear()
    x = alg.basis_section(1).scaled(Polynomial.variable(R2, "x2"))
    y = alg.basis_section(2)
    theta = Form.monomial(2, R2, (1,), Polynomial.parse("x1 + x2", R2))
    lhs = rho(alg, x, pairing(theta, y))
    rhs = pairing(alg.lie_derivative(x, theta), y) + pairing(theta, alg.schouten(x, y))
    assert lhs == rhs


def test_lie_derivative_along_zero_takes_no_differential(monkeypatch):
    """L_0 is 0 on the dual exterior algebra without running the Cartan
    formula, and a target in another frame is still refused."""
    alg = cotangent_linear()
    theta = Form.monomial(2, R2, (1,), Polynomial.parse("x1 + x2", R2))
    with pytest.raises(AlgebroidError):
        alg.lie_derivative(alg.zero_section(), Form.zero(3, R2))
    calls = []
    monkeypatch.setattr(AlgebroidStructure, "differential", lambda side, w: calls.append(w))
    assert alg.lie_derivative(alg.zero_section(), theta) == Form.zero(2, R2)
    assert calls == []


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


# -- the derivation loop and the complement map against direct formulas -------------
#
# The Schouten tests above check properties, not values.  These oracles are the
# formulas that the derivation loop and exterior._complement replaced, written
# over public operations only: the differential as a sum of wedges of
# monomials, the Schouten bracket by peeling one factor at a time, and the
# boundary degree by degree through interior products with the top elements.


def _oracle_differential(alg, w):
    rank, coords, cls = alg.rank, alg.coordinates, alg.dual_cls
    one = Polynomial.const(coords, 1)

    def d_basis(k):
        acc = cls.zero(rank, coords)
        for (i, j), comps in alg.brackets.items():
            if not comps[k - 1].is_zero():
                acc = acc + cls.monomial(rank, coords, (i, j), -comps[k - 1])
        return acc

    out = cls.zero(rank, coords)
    for J, p in w.terms.items():
        df = cls(rank, coords, {(i,): apply_field(alg.anchor[i - 1], p, coords)
                                for i in range(1, rank + 1)})
        out = out + df.wedge(cls.monomial(rank, coords, J, one))
        for t in range(len(J)):
            pre = cls.monomial(rank, coords, J[:t], p if t % 2 == 0 else -p)
            out = out + pre.wedge(d_basis(J[t])).wedge(cls.monomial(rank, coords, J[t + 1:], one))
    return out


def _oracle_schouten(alg, u, v):
    rank, coords = alg.rank, alg.coordinates
    one = Polynomial.const(coords, 1)

    def mono(index, coeff):
        return alg.section_cls.monomial(rank, coords, index, coeff)

    def basis_left(I, pv, J):
        """[e_I, pv e_J]."""
        if len(I) == 1:
            out = mono(J, apply_field(alg.anchor[I[0] - 1], pv, coords))
            for t in range(len(J)):
                out = out + mono(J[:t], pv).wedge(alg.bracket_pair(I[0], J[t])) \
                    .wedge(mono(J[t + 1:], one))
            return out
        # [e_i ^ e_R, B] = e_i ^ [e_R, B] + (-1)^((k-1)(l-1)) [e_i, B] ^ e_R
        second = basis_left(I[:1], pv, J).wedge(mono(I[1:], one))
        if ((len(I) - 1) * (len(J) - 1)) % 2:
            second = -second
        return mono(I[:1], one).wedge(basis_left(I[1:], pv, J)) + second

    def monomials(pu, I, pv, J):
        k, l = len(I), len(J)
        if k == 0 and l == 0:
            return alg.zero_section()
        if k == 0:
            # [f, v] = (-1)^|v| [v, f]
            res = monomials(pv, J, pu, I)
            return res if l % 2 == 0 else -res
        # [f A, B] = f [A, B] - (-1)^((k-1)(l-1)) [B, f] ^ A
        out = basis_left(I, pv, J).scaled(pu)
        if l > 0:
            term = monomials(pv, J, pu, ()).wedge(mono(I, one))
            out = out - term if ((k - 1) * (l - 1)) % 2 == 0 else out + term
        return out

    out = alg.zero_section()
    for I, pu in u.terms.items():
        for J, pv in v.terms.items():
            out = out + monomials(pu, I, pv, J)
    return out


def _oracle_boundary(alg, frame, u):
    """(-1)^l inv(d(iota_u top)) on each degree l, written for Multivector
    sections with top = Omega and moved across by retype on Form sections."""
    across = retype if alg.section_kind == "covector" else (lambda element: element)
    n = alg.rank
    out = alg.zero_section()
    for l in u.degrees():
        phi = across(interior_by_multivector(across(of_degree(u, l)), frame.omega))
        d_phi = across(alg.differential(phi))
        for j in d_phi.degrees():
            piece = interior_by_form(of_degree(d_phi, j), frame.vee)
            if ((n - j) * (n - 1) + l) % 2:
                piece = -piece
            out = out + across(piece)
    return out


def _elements(cls, rank, coords):
    """Mixed-degree elements of up to three terms x_I, I drawn as a bit mask,
    each with a polynomial coefficient of up to two terms of degree <= 2 in
    each coordinate."""
    m = len(coords)
    term = st.tuples(st.integers(0, 2 ** rank - 1),
                     st.lists(st.integers(0, 2), min_size=2 * m, max_size=2 * m),
                     st.integers(-3, 3), st.integers(1, 3))

    def build(terms):
        out = {}
        for mask, exps, a, b in terms:
            index = tuple(i for i in range(1, rank + 1) if mask >> (i - 1) & 1)
            out[index] = Polynomial(coords, {tuple(exps[:m]): Fraction(a, b),
                                             tuple(exps[m:]): Fraction(b, 2)})
        return cls(rank, coords, out)

    return st.lists(term, max_size=3).map(build)


@pytest.fixture(scope="module")
def gate_structures(corpus, failing_pairs, pn_failing_pairs):
    """VALID_STRUCTURES (vector side) and both halves of every corpus pair,
    failing pair (over a point and over R^2) and PN failing pair, so that
    both section kinds are covered, and of the log-canonical double over
    R^3, whose quadratic anchor and non-integer brackets take the
    differential's and the Schouten bracket's frame tables past the
    identity anchor.  Each pair's flip adds its two halves, which read the
    tables of P's mirror sides, filled first by the other section kind."""
    out = [factory() for factory in VALID_STRUCTURES]
    for P in [P for _label, P in corpus] + list(failing_pairs) + list(pn_failing_pairs) \
            + [log_canonical_double()]:
        out += [P.A, P.Astar, P.flipped().A, P.flipped().Astar]
    return out


# No shrink phase: an example draws elements for every structure, and shrinking
# that many draws after a failure takes minutes.
@settings(max_examples=20, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_operators_match_the_direct_formulas(gate_structures, data):
    for alg in gate_structures:
        frame = FrameData(alg.rank, alg.coordinates)
        u, v = (data.draw(_elements(alg.section_cls, alg.rank, alg.coordinates))
                for _ in range(2))
        w = data.draw(_elements(alg.dual_cls, alg.rank, alg.coordinates))
        assert str(alg.differential(w)) == str(_oracle_differential(alg, w))
        assert str(alg.schouten(u, v)) == str(_oracle_schouten(alg, u, v))
        assert str(bv_boundary(alg, frame, u)) == str(_oracle_boundary(alg, frame, u))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_sharps_are_interior_products_with_the_top_elements(data, n):
    frame = FrameData(n, R2)
    u = data.draw(_elements(Multivector, n, R2))
    theta = data.draw(_elements(Form, n, R2))
    assert omega_sharp(frame, u) == interior_by_multivector(u, frame.omega)
    assert v_sharp(frame, theta) == interior_by_form(theta, frame.vee)
