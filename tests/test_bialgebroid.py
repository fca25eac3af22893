from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bialgebroid import (AlgebroidError, BialgebroidPair, Form, Multivector,
                         PairError, Polynomial, PreconditionError, ProbeConfig,
                         SectionE, a_plus_b, clifford_act, coordinate_monomials,
                         corollary_suite, courant_axioms, dee, dirac_apply,
                         dirac_square, dirac_star_apply, dirac_star_square,
                         dorfman, f_tilde, f_tilde_star, generator_check,
                         interior_by_form, is_lie_bialgebroid, metric, pairing,
                         rho_apply, theorem_c_suite)

from conftest import (const, heisenberg, heisenberg_triangular_pair,
                      point_algebra, poisson_data)
from bialgebroid import poisson_double


@pytest.fixture(scope="module")
def ab():
    return a_plus_b(1, 2, 3, 4)


def mv(index, coeff=1):
    return Multivector.monomial(2, (), index, const(coeff))


def form(index, coeff=1):
    return Form.monomial(2, (), index, const(coeff))


# -- frozen values for the [e1,e2] = e1 + 2 e2, [eps1,eps2] = 3 eps1 + 4 eps2 pair ----


def test_modular_cocycles_frozen(ab):
    assert ab.modular.xi0 == form((1,), 2) - form((2,), 1)
    assert ab.modular.x0 == mv((1,), 4) - mv((2,), 3)


def test_f_tilde_frozen(ab):
    assert ab.f_tilde() == const(Fraction(-11, 4))
    assert f_tilde(ab) == f_tilde_star(ab)


def test_dirac_values_frozen(ab):
    one = ab.scalar_mv(1)
    assert dirac_apply(ab, one) == mv((1,), 2) - mv((2,), Fraction(3, 2))
    assert dirac_apply(ab, mv((1, 2))) == mv((1,), Fraction(1, 2)) + mv((2,), 1)
    assert dirac_apply(ab, dirac_apply(ab, one)) == one.scaled(Fraction(-11, 4))


def test_dirac_square_report(ab):
    rep = dirac_square(ab)
    assert rep.is_scalar and rep.square_formula_ok
    assert rep.f_tilde == const(Fraction(-11, 4))
    assert rep.witness is None and rep.formula_witness is None
    mirror = dirac_star_square(ab)
    assert mirror.is_scalar and mirror.square_formula_ok
    assert mirror.f_tilde == rep.f_tilde


def test_is_lie_bialgebroid(ab):
    rep = is_lie_bialgebroid(ab)
    assert rep.passed
    assert [r.id for r in rep.records] == ["leibniz-dstar"]


# -- suites on known-good pairs --------------------------------------------------


CHEAP_PAIRS = [lambda: a_plus_b(1, 2, 3, 4), heisenberg_triangular_pair,
               lambda: poisson_double(poisson_data("constant"))]

THEOREM_C_IDS = [f"thm-c/{x}" for x in "abcdefghijkl"]


@pytest.mark.parametrize("factory", CHEAP_PAIRS)
def test_theorem_c_suite_passes(factory):
    rep = theorem_c_suite(factory())
    assert sorted(r.id for r in rep.records) == sorted(THEOREM_C_IDS)
    bad = [r.id for r in rep.records if not r.passed]
    assert bad == []


@pytest.mark.parametrize("factory", CHEAP_PAIRS)
def test_corollary_suite_passes(factory):
    rep = corollary_suite(factory())
    bad = [(r.id, r.witness) for r in rep.records if not r.passed]
    assert bad == []


@pytest.mark.parametrize("factory", CHEAP_PAIRS)
def test_courant_axioms_pass(factory):
    rep = courant_axioms(factory())
    bad = [(r.id, r.witness) for r in rep.records if not r.passed]
    assert bad == []
    assert {r.id for r in rep.records} == {f"courant/g{i}" for i in range(1, 7)} | {"courant/anchor"}


@pytest.mark.parametrize("factory", CHEAP_PAIRS)
def test_generator_check_passes(factory):
    rep = generator_check(factory())
    bad = [(r.id, r.witness) for r in rep.records if not r.passed]
    assert bad == []


# -- incompatible pairs ----------------------------------------------------------


def test_counterexample_fails_exactly_as_expected(failing_pairs):
    for P in failing_pairs:
        leib = is_lie_bialgebroid(P)
        assert not leib.passed, P.label
        assert "Leibniz" in (leib.record("leibniz-dstar").witness or ""), P.label

        sq = dirac_square(P)
        assert not sq.is_scalar, P.label
        assert sq.square_formula_ok, P.label  # the square formula holds without compatibility
        mirror = dirac_star_square(P)
        assert not mirror.is_scalar and mirror.square_formula_ok, P.label


def test_counterexample_theorem_c(failing_pairs):
    for P in failing_pairs:
        rep = theorem_c_suite(P)
        failed = {r.id for r in rep.records if not r.passed}
        assert "thm-c/a" in failed and "thm-c/k" in failed, P.label


def test_counterexample_courant_g1_only(failing_pairs):
    for P in failing_pairs:
        rep = courant_axioms(P)
        failed = {r.id for r in rep.records if not r.passed}
        # over a point the anchor and every D f vanish, so only g1 can fail;
        # over R^2 the anchor (g2) and D f o x = 0 (g5) fail as well
        want = {"courant/g1", "courant/g2", "courant/g5"} if P.coordinates else {"courant/g1"}
        assert failed == want, P.label


def test_counterexample_generator(failing_pairs):
    for P in failing_pairs:
        rep = generator_check(P)
        failed = {r.id for r in rep.records if not r.passed}
        assert failed == {"generator/square-scalar"}, P.label


def test_counterexample_corollaries_refused(failing_pairs):
    for P in failing_pairs:
        with pytest.raises(PreconditionError):
            corollary_suite(P)


# -- double structure building blocks ---------------------------------------------


def test_metric_values(ab):
    e1 = SectionE.of(vec=ab.basis_e(1))
    eps1 = SectionE.of(cov=ab.basis_eps(1))
    eps2 = SectionE.of(cov=ab.basis_eps(2))
    assert metric(e1, eps1) == const(Fraction(1, 2))
    assert metric(e1, eps2) == const(0)
    assert metric(e1, e1) == const(0)
    both = SectionE(ab.basis_e(1), ab.basis_eps(1))
    assert metric(both, both) == const(1)


def test_dorfman_pure_parts(ab):
    x = SectionE.of(vec=ab.basis_e(1))
    y = SectionE.of(vec=ab.basis_e(2))
    out = dorfman(ab, x, y)
    assert out.vec == ab.A.schouten(ab.basis_e(1), ab.basis_e(2))
    assert out.cov.is_zero()

    xi = SectionE.of(cov=ab.basis_eps(1))
    eta = SectionE.of(cov=ab.basis_eps(2))
    out = dorfman(ab, xi, eta)
    assert out.vec.is_zero()
    assert out.cov == ab.Astar.schouten(ab.basis_eps(1), ab.basis_eps(2))


def test_dorfman_mixed_part(ab):
    # (X, 0) o (0, eta) = (-iota_eta dstar X, L_X eta)
    X, eta = ab.basis_e(1), ab.basis_eps(2)
    out = dorfman(ab, SectionE.of(vec=X), SectionE.of(cov=eta))
    assert out.vec == -interior_by_form(eta, ab.dstar(X))
    assert out.cov == ab.A.lie_derivative(X, eta)


def test_dee_is_half_anchor(ab):
    P = poisson_double(poisson_data("linear"))
    f = Polynomial.parse("x1*x2", P.coordinates)
    df = dee(P, f)
    for i in range(1, P.rank + 1):
        for e in (SectionE.of(vec=P.basis_e(i)), SectionE.of(cov=P.basis_eps(i))):
            assert metric(df, e) * 2 == rho_apply(P, e, f)


def test_clifford_action_squares_to_metric(ab):
    w_list = [ab.scalar_mv(1), ab.basis_e(1), ab.basis_e(2), mv((1, 2))]
    sections = [SectionE(ab.basis_e(1), ab.basis_eps(1)),
                SectionE(ab.basis_e(2), ab.basis_eps(1) + ab.basis_eps(2)),
                SectionE.of(cov=ab.basis_eps(2))]
    for e in sections:
        norm = metric(e, e)
        for w in w_list:
            assert clifford_act(e, clifford_act(e, w)) == w.scaled(norm)


def test_clifford_anticommutator_is_metric(ab):
    e1 = SectionE(ab.basis_e(1), ab.basis_eps(2))
    e2 = SectionE(ab.basis_e(2), ab.basis_eps(1))
    for w in (ab.scalar_mv(1), ab.basis_e(1), mv((1, 2))):
        lhs = clifford_act(e1, clifford_act(e2, w)) + clifford_act(e2, clifford_act(e1, w))
        assert lhs == w.scaled(metric(e1, e2) * 2)


# -- probe machinery -------------------------------------------------------------


def test_probe_config_guard(ab):
    with pytest.raises(PairError):
        dirac_square(ab, ProbeConfig(max_coord_degree=1))
    with pytest.raises(ValueError):
        ProbeConfig(max_coord_degree=-1)


def test_coordinate_monomials_counts():
    assert [str(p) for p in coordinate_monomials((), 2)] == ["1"]
    monos = coordinate_monomials(("x1", "x2"), 2)
    assert len(monos) == 6
    assert [str(p) for p in monos[:3]] == ["1", "x1", "x2"]
    degrees = [p.total_degree() for p in monos]
    assert degrees == sorted(degrees)


def test_section_e_structure(ab):
    with pytest.raises(PairError):
        SectionE(mv((1, 2)), Form.zero(2, ()))
    s = SectionE(ab.basis_e(1), ab.basis_eps(2))
    t = SectionE.of(vec=ab.basis_e(2))
    total = s + t.scaled(3)
    assert total.vec == ab.basis_e(1) + ab.basis_e(2).scaled(3)
    assert (total - total).is_zero()
    assert str(SectionE.zero(2, ())) == "0 (+) 0"


# -- property tests ---------------------------------------------------------------


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=25, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_rank2_family_always_scalar(a, b, c, d):
    P = a_plus_b(a, b, c, d)
    rep = dirac_square(P)
    assert rep.is_scalar and rep.square_formula_ok
    expected = Fraction(-(b * d + a * c), 4)
    assert rep.f_tilde == Polynomial.const((), expected)


small_ints = st.integers(min_value=-1, max_value=1)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[small_ints] * 9))
def test_square_scalar_iff_compatible(entries):
    """Scalar-square and the Leibniz property always agree on rank-3 duals."""
    primal = heisenberg()
    table = {key: entries[3 * t: 3 * t + 3]
             for t, key in enumerate(((1, 2), (1, 3), (2, 3)))}
    dual = point_algebra(3, table, kind="covector")
    try:
        P = BialgebroidPair(primal, dual)
    except AlgebroidError:
        return  # the candidate dual is not a Lie algebroid on its own
    sq = dirac_square(P)
    assert sq.square_formula_ok
    assert sq.is_scalar == is_lie_bialgebroid(P).passed
    assert sq.is_scalar == dirac_star_square(P).is_scalar
