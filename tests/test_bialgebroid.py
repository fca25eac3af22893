import functools
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bialgebroid
from bialgebroid import (AlgebroidError, BialgebroidPair, Form, Multivector,
                         PairError, Polynomial, PreconditionError, SectionE,
                         a_plus_b, clifford_act, coordinate_monomials,
                         corollary_suite, courant_axioms, dee, dirac_apply,
                         dirac_square, dirac_star_apply, dirac_star_square,
                         dorfman, f_tilde, f_tilde_star, generator_check,
                         interior_by_form, is_lie_bialgebroid, metric,
                         multivector_probes, pairing, rho_apply, rho_field,
                         theorem_c_suite)
from bialgebroid import (BivectorData, ScalarReport, cli, exact_identities, pn_desk_instance,
                         pn_hierarchy, pn_identities)
from bialgebroid import pair as pair_module
from bialgebroid.ring import field_bracket
from bialgebroid.pair import (MIRROR_PREFIX, degree1_form_probes,
                              degree1_multivector_probes, laplacian)

from conftest import (const, fresh_pair, heisenberg, heisenberg_triangular_pair,
                      point_algebra, poisson_data, quadratic_double)
from bialgebroid import PoissonManifoldData, poisson_double


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


def test_counterexample_fails_exactly_as_expected(failing_pairs, pn_failing_pairs):
    for P in failing_pairs + pn_failing_pairs:
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


def test_counterexample_courant_g1_only(failing_pairs, pn_failing_pairs):
    for P in failing_pairs + pn_failing_pairs:
        rep = courant_axioms(P)
        failed = {r.id for r in rep.records if not r.passed}
        # over a point the anchor and every D f vanish, so only g1 can fail;
        # over a base the anchor (g2) and D f o x = 0 (g5) fail as well, and
        # on these pairs g1 holds on the frame and fails only through g2
        want = {"courant/g1", "courant/g2", "courant/g5"} if P.coordinates else {"courant/g1"}
        assert failed == want, P.label


def test_counterexample_generator(failing_pairs, pn_failing_pairs):
    for P in failing_pairs + pn_failing_pairs:
        rep = generator_check(P)
        failed = {r.id for r in rep.records if not r.passed}
        assert failed == {"generator/square-scalar"}, P.label


def test_generator_square_record_is_dirac_squares_scan(corpus, failing_pairs, pn_failing_pairs):
    for P in [P for _label, P in corpus] + failing_pairs + pn_failing_pairs:
        sq = dirac_square(P)
        rec = generator_check(P).record("generator/square-scalar")
        assert (rec.passed, rec.witness) == (sq.is_scalar, sq.witness), P.label


def test_generator_check_applies_no_laplacian(corpus, failing_pairs, monkeypatch):
    """generator/square-scalar reads only the scalar scan, so the square
    formula, the one user of the Laplacian there, is not evaluated."""
    calls = []

    def counting(P, target, direct=pair_module.laplacian):
        calls.append(target)
        return direct(P, target)

    monkeypatch.setattr(pair_module, "laplacian", counting)
    for P in [dict(corpus)["poisson-linear"], dict(corpus)["exact-so3"], failing_pairs[0]]:
        generator_check(P)
    assert calls == []
    dirac_square(dict(corpus)["poisson-linear"])
    assert calls  # the counter sees the Laplacians dirac_square applies


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
    # a section of another frame is refused, not read off the pair's table
    with pytest.raises(PairError):
        dorfman(ab, x, SectionE.of(vec=Multivector.basis(3, (), 1)))


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


def _derivation_oracle(P, probes, op, product, sign, names):
    """First failure of op(u v) = op(u) v + sign^(|u|-1) u op(v) on every
    ordered pair of probes, with op and product applied directly, or None."""
    images = [op(u) for u in probes]
    for u, op_u in zip(probes, images):
        s = sign ** ((u.max_degree() - 1) % 2)
        for v, op_v in zip(probes, images):
            lhs = op(product(u, v))
            rhs = product(op_u, v) + product(u, op_v).scaled(s)
            if lhs != rhs:
                return f"u = {u}; v = {v}; {names[0]} = {lhs}; {names[1]} = {rhs}"
    return None


@pytest.mark.parametrize("build", [quadratic_double, lambda m: a_plus_b(1, 2, 3, 4)])
def test_derivation_witness_takes_each_unordered_generator_pair_once(build):
    """On a passing pair, _derivation_witness applies op to the g = m + n
    generators and to the product of each of the g(g+1)/2 pairs u <= v, and
    takes 3 g(g+1)/2 products: u v, op(u) v and u op(v) for each pair."""
    P = build(2)
    g = len(P.coordinates) + P.rank
    for op, product, sign in ((P.dstar, P.A.schouten, -1),
                              (lambda u: laplacian(P, u), Multivector.wedge, 1),
                              (lambda u: laplacian(P, u), P.A.schouten, 1)):
        ops, products = [], []

        def counted_op(u, op=op):
            ops.append(u)
            return op(u)

        def counted_product(u, v, product=product):
            products.append((u, v))
            return product(u, v)

        assert pair_module._derivation_witness(P, counted_op, counted_product, sign,
                                               ("lhs", "rhs")) is None
        assert len(ops) == g + g * (g + 1) // 2
        assert len(products) == 3 * g * (g + 1) // 2


def _leibniz_oracle(P, probes):
    return _derivation_oracle(P, [u for u in probes if u.max_degree() <= 2], P.dstar,
                              P.A.schouten, -1, ("dstar[u,v]", "Leibniz side"))


def test_degree3_probes_reach_the_library_verdicts(corpus, failing_pairs, pn_failing_pairs):
    """Exactness oracle: probes one degree past PROBE_DEGREE find a defect
    exactly when the library's decision does."""
    for label, P in corpus + [(P.label, P) for P in failing_pairs + pn_failing_pairs]:
        ft = f_tilde(P)
        probes = multivector_probes(P, 3)
        square_defect = any(dirac_apply(P, dirac_apply(P, u)) != u.scaled(ft) for u in probes)
        assert square_defect == (not dirac_square(P).is_scalar), label
        leibniz_defect = _leibniz_oracle(P, probes) is not None
        assert leibniz_defect == (not is_lie_bialgebroid(P).passed), label


def _dirac_square_oracle(P):
    """dirac_square on every x^gamma e_I with |gamma| <= 2, each operator by
    a direct call: the scalar scan and the square formula on one family."""
    ft = f_tilde(P)
    witness = formula_witness = None
    for u in multivector_probes(P, 2):
        sq = pair_module.dirac_apply(P, pair_module.dirac_apply(P, u))
        residual = sq - u.scaled(ft)
        if witness is None and not residual.is_zero():
            witness = f"u = {u}; D^2 u - f~ u = {residual}"
        formula = pair_module._half_modular_lie(P, u) - pair_module.laplacian(P, u) + u.scaled(ft)
        if formula_witness is None and sq != formula:
            formula_witness = f"u = {u}; D^2 u = {sq}; formula gives {formula}"
    return ScalarReport(witness is None, ft, witness, formula_witness is None,
                        formula_witness).to_json()


def _modular_lie_oracle(P):
    """thm-c (k) and (e) of P on every x^gamma e_I with |gamma| <= 2, each
    Laplacian by a direct call; (e) is (k) on the probes with |I| <= 1."""
    k = e = None
    for u in multivector_probes(P, 2):
        lap, rhs = laplacian(P, u), pair_module._half_modular_lie(P, u)
        if lap != rhs:
            wit = f"u = {u}; Lap u = {lap}; half modular Lie = {rhs}"
            k = k or wit
            if u.max_degree() <= 1:
                e = e or wit
    return k, e


def test_generator_products_are_the_short_products_in_probe_order():
    """_generator_products(P, k) keeps the x^gamma e_I of multivector_probes
    with |gamma| + |I| <= k, in their order: 25 and 53 probes for k = 2, 3
    at m = n = 3, 41 and 109 at m = n = 4, against 80 and 240 for all."""
    for m, sizes in ((3, (25, 53, 80)), (4, (41, 109, 240))):
        coords = tuple(f"x{a}" for a in range(1, m + 1))
        zero = [["0"] * m for _ in range(m)]
        P = poisson_double(PoissonManifoldData(m, zero, coords))
        full = [str(u) for u in multivector_probes(P, 2)]
        for k, size in zip((2, 3), sizes):
            got = [str(u) for u in pair_module._generator_products(P, k)]
            assert len(got) == size
            assert got == [str(u) for u in multivector_probes(P, 2)
                           if u.max_degree() + max(p.total_degree() for p in u.terms.values()) <= k]
        assert len(full) == sizes[2]


def test_square_decisions_on_generator_products_match_the_full_family(
        corpus, failing_pairs, pn_failing_pairs):
    """Oracle for the order reduction of dirac_square, generator/square-scalar
    and thm-c (k), (l), (e), (f): the reports are the ones found on every
    x^gamma e_I with |gamma| <= 2 with direct operator calls, witnesses and
    None included, on P and on P.flipped()."""
    for label, P in corpus + [(P.label, P) for P in failing_pairs + pn_failing_pairs]:
        thm = theorem_c_suite(P)
        for Q, prefix, k, e in ((P, "", "thm-c/k", "thm-c/e"),
                                (P.flipped(), MIRROR_PREFIX, "thm-c/l", "thm-c/f")):
            want = _dirac_square_oracle(Q)
            assert dirac_square(Q).to_json() == want, label
            rec = generator_check(Q).record("generator/square-scalar")
            assert (rec.passed, rec.witness) == (want["is_scalar"], want.get("witness")), label
            for rid, wit in zip((k, e), _modular_lie_oracle(Q)):
                assert thm.record(rid).witness == (None if wit is None else prefix + wit), label


def _plus_an_order_2_fault(op):
    """op plus e_1 ^ e_2 ^ iota_{eps^1} iota_{eps^2} on Multivectors: a term
    of order 2 over wedge A that kills 1 and the generators and first shows
    on e_1 ^ e_2."""

    def broken(Q, target):
        out = op(Q, target)
        if isinstance(target, Form):
            return out
        inner = interior_by_form(Q.basis_eps(1), interior_by_form(Q.basis_eps(2), target))
        return out + Q.basis_e(1).wedge(Q.basis_e(2)).wedge(inner)

    return broken


def test_square_formula_fault_of_order_2_shows_on_two_generators(corpus, monkeypatch):
    """A fault inside the order argument: the formula's Laplacian broken by
    an order-2 term, which leaves D untouched.  On the triangular Heisenberg
    pair its formula defect first shows on e_1 ^ e_2, a product of two
    generators, where the full family finds it too."""
    P = dict(corpus)["triangular-heisenberg"]
    monkeypatch.setattr(pair_module, "laplacian", _plus_an_order_2_fault(laplacian))
    got, want = dirac_square(P).to_json(), _dirac_square_oracle(P)
    assert got == want
    assert got["is_scalar"] and not got["square_formula_ok"]
    assert got["formula_witness"].startswith("u = e[1,2]; ")


def test_square_zero_consumers_fail_with_the_square_formula(corpus, monkeypatch, capsys):
    """exact/square-zero, pn/square-zero, `example poisson` and `example
    a-plus-b` read square_formula_ok as well as is_scalar: with the
    formula's half modular Lie derivative broken, which no other record of
    theirs reads, each fails with the formula witness."""
    monkeypatch.setattr(pair_module, "_half_modular_lie",
                        _plus_an_order_2_fault(pair_module._half_modular_lie))
    P = dict(corpus)["triangular-heisenberg"]
    L = BivectorData(Multivector.monomial(3, (), (1, 3), const(1)))
    A, N, Lpn = pn_desk_instance()
    for rec, Q in ((exact_identities(P, L).record("exact/square-zero"), P),
                   (pn_identities(A, N, Lpn).record("pn/square-zero"), pn_hierarchy(A, N, Lpn, 1, 1))):
        want = dirac_square(Q)
        assert want.is_scalar and not want.square_formula_ok
        assert (rec.passed, rec.witness) == (False, want.formula_witness)
    code = cli.main(["example", "poisson", "--dim", "2", "--pi", '[["0", "x1"], ["-x1", "0"]]'])
    body = json.loads(capsys.readouterr().out)
    assert (code, body["pass"], body["suite"]["pass"]) == (1, False, True)
    assert body["formula_witness"].startswith("u = e[1,2]; ")
    code = cli.main(["example", "a-plus-b", "--a", "1", "--b", "2", "--c", "3", "--d", "4"])
    body = json.loads(capsys.readouterr().out)
    assert (code, body["pass"], body["is_scalar"]) == (1, False, True)
    assert "witness" not in body and body["formula_witness"].startswith("u = e[1,2]; ")


def test_dirac_square_stores_nothing_on_the_pair(corpus):
    P = dict(corpus)["poisson-linear"]
    P.flipped()
    before = dict(vars(P))
    dirac_square(P)
    assert vars(P) == before
    assert "dstar" not in vars(P) and "boundary" not in vars(P)


def test_derivation_identities_on_generators_match_all_probe_pairs(
        corpus, failing_pairs, pn_failing_pairs):
    """Oracle for the generator reduction: the Leibniz rule and the Laplacian
    derivation identities checked on every pair of probes x^gamma e_I with
    |gamma| <= 2 give the library's witnesses, on P and on P.flipped()."""
    for label, P in corpus + [(P.label, P) for P in failing_pairs + pn_failing_pairs]:
        thm = theorem_c_suite(P)
        for Q, prefix, a, i in ((P, "", "thm-c/a", "thm-c/i"),
                                (P.flipped(), MIRROR_PREFIX, "thm-c/b", "thm-c/j")):
            probes = multivector_probes(Q, 2)
            lap = lambda u, Q=Q: laplacian(Q, u)
            leibniz = _leibniz_oracle(Q, probes)
            wedge = _derivation_oracle(Q, probes, lap, Multivector.wedge, 1,
                                       ("Lap(u^v)", "derivation side"))
            assert is_lie_bialgebroid(Q).record("leibniz-dstar").witness == leibniz, label
            for rid, want in ((a, leibniz), (i, wedge)):
                assert thm.record(rid).witness == (None if want is None else prefix + want), label
            if leibniz is None:
                bracket = _derivation_oracle(Q, [u for u in probes if u.max_degree() <= 2], lap,
                                             Q.A.schouten, 1, ("Lap[u,v]", "derivation side"))
                cor = corollary_suite(Q)
                assert cor.record("cor-brood/g14").witness == wedge, label
                assert cor.record("cor-brood/g15").witness == bracket, label


def _defect_operator(P, u, th, e):
    """The defect operator L_e - (L_u L_theta - L_theta L_u) on forms, with
    e = (u, 0) o (0, theta), every Lie derivative by a direct call."""
    def top(eta):
        second = P.A.lie_derivative(u, P.Astar.lie_derivative(th, eta)) \
            - P.Astar.lie_derivative(th, P.A.lie_derivative(u, eta))
        return P.A.lie_derivative(e.vec, eta) + P.Astar.lie_derivative(e.cov, eta) - second
    return top


def _defect_witness_oracle(P):
    """thm-c/c computed directly: every Lie derivative by a direct call, and
    tensoriality of the defect operator checked on every f with |gamma| <= 2."""
    lin_funcs = coordinate_monomials(P.coordinates, 2)[1:]
    for u in degree1_multivector_probes(P, 2):
        du = P.dstar(u)
        for th in degree1_form_probes(P, 2):
            e = dorfman(P, SectionE.of(vec=u), SectionE.of(cov=th))
            top = _defect_operator(P, u, th, e)
            base = [top(P.basis_eps(j)) for j in range(1, P.rank + 1)]
            for f in lin_funcs:
                for j in range(1, P.rank + 1):
                    probe = Form.monomial(P.rank, P.coordinates, (j,), f)
                    if top(probe) != base[j - 1].scaled(f):
                        return (f"u = {u}; theta = {th}; defect operator is not "
                                f"tensorial on ({f}) eps[{j}]")
            trace = Polynomial.zero(P.coordinates)
            for j in range(1, P.rank + 1):
                trace = trace + pairing(base[j - 1], P.basis_e(j))
            want = 2 * pairing(P.d(th), du)
            if trace != want:
                return f"u = {u}; theta = {th}; trace = {trace}; 2<dstar u, d theta> = {want}"
    return None


def test_defect_tensoriality_on_coordinates_matches_the_full_family(
        corpus, failing_pairs, pn_failing_pairs):
    """Oracle for the order-1 reductions of thm-c (c)/(d): the library's
    witnesses are the ones found with direct Lie derivatives on all
    sections u, theta, every f with |gamma| <= 2 and every eps^j."""
    for label, P in corpus + [(P.label, P) for P in failing_pairs + pn_failing_pairs]:
        rep = theorem_c_suite(P)
        c, d = rep.record("thm-c/c").witness, rep.record("thm-c/d").witness
        assert c == _defect_witness_oracle(P), label
        mirror = _defect_witness_oracle(P.flipped())
        assert d == (None if mirror is None else MIRROR_PREFIX + mirror), label
        if P in pn_failing_pairs:
            # found only on a coordinate times eps^j: the x_a must stay in the family
            for witness in (c, d):
                assert "defect operator is not tensorial on (x" in witness, label


@st.composite
def _degree1_sections(draw, cls, rank, coords):
    """Degree-1 elements with rational coefficients of degree <= 2 in the
    coordinates; any slot, or the whole element, may be zero."""
    exps = st.tuples(*[st.integers(0, 2) for _ in coords]).filter(lambda g: sum(g) <= 2)
    coefficient = st.dictionaries(
        exps, st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)), max_size=3)
    terms = draw(st.dictionaries(st.integers(1, rank), coefficient, max_size=rank))
    return cls(rank, coords, {(i,): Polynomial(coords, t) for i, t in terms.items()})


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_defect_trace_from_top_lie_coefficients_matches_the_nested_operator(
        corpus, failing_pairs, pn_failing_pairs, data):
    """The thm-c trace read off the scalars a(x), L_x Omega = a(x) Omega, is
    the coefficient on Omega of the defect operator's value on Omega, on
    sections well beyond the probe family: any coefficients with
    |gamma| <= 2, zero parts included, on each pair and on its flip, with
    one trace callable reused across draws."""
    pairs = [P for _, P in corpus] + list(failing_pairs) + list(pn_failing_pairs)
    P = data.draw(st.sampled_from(pairs))
    P = data.draw(st.sampled_from([P, P.flipped()]))
    a, trace_of = pair_module._defect_trace(P)
    draws = st.tuples(_degree1_sections(Multivector, P.rank, P.coordinates),
                      _degree1_sections(Form, P.rank, P.coordinates))
    for u, th in data.draw(st.lists(draws, min_size=1, max_size=3)):
        su, sth = SectionE.of(vec=u), SectionE.of(cov=th)
        e = dorfman(P, su, sth)
        got = trace_of(e, rho_field(P, su), rho_field(P, sth), a(u), a(th))
        want = _defect_operator(P, u, th, e)(P.frame.omega).coefficient(P.frame.top_index)
        assert got == want, (P.label, str(u), str(th))


def _pairing_witnesses_oracle(P):
    """thm-c (g) and (h) computed directly: every Laplacian by a direct call,
    on every pair of degree-1 sections with |gamma| <= 2."""
    wit_g = wit_h = None
    deg1_mv = degree1_multivector_probes(P, 2)
    lap_mv = [laplacian(P, u) for u in deg1_mv]
    for th in degree1_form_probes(P, 2):
        lap_th = laplacian(P, th)
        for u, lap_u in zip(deg1_mv, lap_mv):
            h = pairing(th, u)
            rhs = pairing(lap_th, u) + pairing(th, lap_u)
            lhs_g = laplacian(P, P.scalar_form(h)).scalar_part()
            if lhs_g != rhs and wit_g is None:
                wit_g = f"theta = {th}; u = {u}; Lap*<theta,u> = {lhs_g}; pairing side = {rhs}"
            lhs_h = laplacian(P, P.scalar_mv(h)).scalar_part()
            if lhs_h != rhs and wit_h is None:
                wit_h = f"theta = {th}; u = {u}; Lap<theta,u> = {lhs_h}; pairing side = {rhs}"
            if wit_g and wit_h:
                return wit_g, wit_h
    return wit_g, wit_h


def test_pairing_identities_on_degree_one_sections_match_the_full_family(
        corpus, failing_pairs, pn_failing_pairs):
    """Oracle for the order-1 reduction of thm-c (g)/(h): the witnesses,
    None included, are the ones found with direct Laplacians on all
    sections with |gamma| <= 2, on each pair and on its flip."""
    failures = []
    for label, P in corpus + [(P.label, P) for P in failing_pairs + pn_failing_pairs]:
        rep = theorem_c_suite(P)
        found = rep.record("thm-c/g").witness, rep.record("thm-c/h").witness
        assert found == _pairing_witnesses_oracle(P), label
        assert pair_module._pairing_witnesses(P.flipped()) == \
            _pairing_witnesses_oracle(P.flipped()), label
        failures += [w for w in found if w is not None]
    assert len(failures) >= 12
    # some are found only on a coordinate multiple: the x_a must stay in the family
    assert any("(x" in w for w in failures)


def _commutator_function_oracle(P):
    """generator/commutator-function on every f with |gamma| <= 2, with D
    applied directly."""
    for f in coordinate_monomials(P.coordinates, 2):
        df = dee(P, f)
        for w in multivector_probes(P, 1):
            lhs = pair_module.dirac_apply(P, w.scaled(f)) - pair_module.dirac_apply(P, w).scaled(f)
            rhs = clifford_act(df, w)
            if lhs != rhs:
                return f"f = {f}; w = {w}; [D, f] w = {lhs}; Clifford(D f) w = {rhs}"
    return None


def _differentiated(u, names):
    """u with each coefficient differentiated by the coordinates names."""
    return Multivector(u.rank, u.variables, {ix: functools.reduce(Polynomial.diff, names, p)
                                             for ix, p in u.terms.items()})


def _of_degree_at_least_1(u):
    return Multivector(u.rank, u.variables, {ix: p for ix, p in u.terms.items() if ix})


def test_commutator_function_on_coordinates_matches_the_full_family(
        corpus, failing_pairs, pn_failing_pairs, monkeypatch):
    """Oracle for the reductions of generator/commutator-function, f to the
    x_a and w to 1 and the generators x_a, e_i: its witness is the one found
    on every f with |gamma| <= 2 and w with |gamma| <= 1, on every pair and
    its flip, and on pairs whose D is broken by a first- or a second-order
    term in the coordinates, or by d/dx_m on the terms of degree >= 1 only,
    whose failure first shows at w = e_1.  Each fault runs on a freshly
    built pair, so no table filled before it hides the broken D and none it
    fills outlives it."""
    for label, P in corpus + [(P.label, P) for P in failing_pairs + pn_failing_pairs]:
        for Q in (P, P.flipped()):
            got = generator_check(Q).record("generator/commutator-function").witness
            assert got == _commutator_function_oracle(Q) is None, label
    direct = pair_module.dirac_apply
    for label in ("poisson-linear", "poisson-zero"):
        P = dict(corpus)[label]
        last = P.coordinates[-1:]
        breaks = [lambda u, names=names: _differentiated(u, names)
                  for names in (last, P.coordinates[:1] + last)]
        breaks.append(lambda u: _differentiated(_of_degree_at_least_1(u), last))
        for index, extra in enumerate(breaks):
            monkeypatch.setattr(pair_module, "dirac_apply",
                                lambda Q, u, extra=extra: direct(Q, u) + extra(u))
            fresh = fresh_pair(P)
            for Q in (fresh, fresh.flipped()):
                got = generator_check(Q).record("generator/commutator-function").witness
                assert got is not None and got == _commutator_function_oracle(Q), (label, index)
                if index == 2:
                    assert got.startswith(f"f = {last[0]}; w = e[1]; "), label
            monkeypatch.setattr(pair_module, "dirac_apply", direct)


def _odd_commutator_direct(P, e, u):
    """[D, c(e)] u = D(e . u) + e . D(u), with D applied directly (through
    pair.dirac_apply, so that an injected fault reaches it) and no table."""
    D = pair_module.dirac_apply
    return D(P, clifford_act(e, u)) + clifford_act(e, D(P, u))


def _derived_bracket_oracle(P):
    """generator/derived-bracket on the order-1 families whatever the other
    records say: every ordered pair of sections x^gamma e_i, x^gamma eps^i
    and every spinor x^gamma e_I with |gamma| <= 1, each Dorfman bracket by
    a direct call and [D, c(e1)] by _odd_commutator_direct."""
    sections, spinors = pair_module._double_sections(P, 1), multivector_probes(P, 1)
    for e2 in sections:
        for e1 in sections:
            target = dorfman(P, e1, e2)
            for w in spinors:
                lhs = _odd_commutator_direct(P, e1, clifford_act(e2, w)) \
                    - clifford_act(e2, _odd_commutator_direct(P, e1, w))
                rhs = clifford_act(target, w)
                if lhs != rhs:
                    return (f"e1 = {e1}; e2 = {e2}; w = {w}; "
                            f"[[D,e1],e2] w = {lhs}; Clifford(e1 o e2) w = {rhs}")
    return None


def _odd_tensorial_terms(P):
    """Two C-infinity-linear odd operators that break the derived bracket
    but leave [D, f] and the anchor relation alone, on a rank-3 pair over
    R^3: x1 e_1 ^ iota_{eps^2} iota_{eps^3}, and u -> x1 u_{23} e_2, which
    is nonzero only on the e_2 ^ e_3 component of u."""
    x1 = Polynomial.parse("x1", P.coordinates)

    def wedge_contract(u):
        inner = interior_by_form(P.basis_eps(2), interior_by_form(P.basis_eps(3), u))
        return P.basis_e(1).scaled(x1).wedge(inner)

    def matrix_unit(u):
        return Multivector.monomial(P.rank, P.coordinates, (2,), x1 * u.coefficient((2, 3)))

    return [("x1 e1 ^ iota iota", wedge_contract), ("x1 u_23 e2", matrix_unit)]


def test_derived_bracket_defect_is_skew_on_the_frame(corpus, failing_pairs, pn_failing_pairs,
                                                    monkeypatch):
    """B(e1, e2) w = [[D, c(e1)], c(e2)] w - c(e1 o e2) w, on the frame
    sections and the constant spinors, is skew for any odd D: B(e, e) = 0
    and B(e1, e2) = -B(e2, e1) on every corpus, failing and PN pair, and on
    D broken by either C-infinity-linear odd term of _odd_tensorial_terms,
    where B is not zero.  generator_check's frame family relies on it."""
    def defect(P, e1, e2, w):
        lhs = _odd_commutator_direct(P, e1, clifford_act(e2, w)) \
            - clifford_act(e2, _odd_commutator_direct(P, e1, w))
        return lhs - clifford_act(dorfman(P, e1, e2), w)

    def nonzero_defects(P):
        frame, spinors = pair_module._double_sections(P, 0), multivector_probes(P, 0)
        count = 0
        for w in spinors:
            for e1, e2 in itertools.product(frame, repeat=2):
                b = defect(P, e1, e2, w)
                assert b == -defect(P, e2, e1, w), (P.label, str(e1), str(e2), str(w))
                assert e1 != e2 or b.is_zero(), (P.label, str(e1), str(w))
                count += not b.is_zero()
        return count

    for P in [P for _label, P in corpus] + list(failing_pairs) + list(pn_failing_pairs):
        nonzero_defects(P)
    direct = pair_module.dirac_apply
    P = pn_failing_pairs[0]
    for name, term in _odd_tensorial_terms(P):
        monkeypatch.setattr(pair_module, "dirac_apply",
                            lambda Q, u, term=term: direct(Q, u) + term(u))
        assert nonzero_defects(P), name
        monkeypatch.setattr(pair_module, "dirac_apply", direct)


def test_derived_bracket_on_the_frame_matches_the_full_family(
        corpus, failing_pairs, pn_failing_pairs, monkeypatch):
    """Oracle for the frame reduction of generator/derived-bracket: its
    witness is the one found on the order-1 families, on every pair, on a
    D broken by a C-infinity-linear term (the frame path, [D, f] and the
    anchor relation hold) and on a D broken by a coordinate derivative
    (the fallback path, [D, f] fails).  The honest pairs run on both
    sides.  The commutator tables are filled through pair.dirac_apply and
    kept for the life of the pair, so each broken D runs on a freshly
    built pair."""
    for label, P in corpus + [(P.label, P) for P in failing_pairs + pn_failing_pairs]:
        for Q in (P, P.flipped()):
            got = generator_check(Q).record("generator/derived-bracket").witness
            assert got == _derived_bracket_oracle(Q) is None, label
    direct = pair_module.dirac_apply
    for name, term in _odd_tensorial_terms(pn_failing_pairs[0]):
        monkeypatch.setattr(pair_module, "dirac_apply",
                            lambda Q, u, term=term: direct(Q, u) + term(u))
        P = fresh_pair(pn_failing_pairs[0])
        rep = generator_check(P)
        assert rep.record("generator/commutator-function").passed, name
        assert rep.record("generator/anchor").passed, name
        got = rep.record("generator/derived-bracket").witness
        assert got is not None and got == _derived_bracket_oracle(P), name
        monkeypatch.setattr(pair_module, "dirac_apply", direct)
    # the first failing spinor of the matrix unit has degree 2
    assert "; w = e[2,3]; " in got
    for label in ("poisson-linear", "poisson-zero"):
        P = fresh_pair(dict(corpus)[label])
        names = P.coordinates[-1:]
        monkeypatch.setattr(pair_module, "dirac_apply",
                            lambda Q, u: direct(Q, u) + _differentiated(u, names))
        rep = generator_check(P)
        assert not rep.record("generator/commutator-function").passed, label
        got = rep.record("generator/derived-bracket").witness
        assert got is not None and got == _derived_bracket_oracle(P), label
        monkeypatch.setattr(pair_module, "dirac_apply", direct)


def test_derived_bracket_brackets_each_frame_pair_once(monkeypatch):
    """With [D, f] and the anchor relation holding, generator_check makes
    C(2n, 2) direct Dorfman calls, one per sorted pair of distinct frame
    sections (e2 first, e1 after it), since the derived-bracket defect is
    skew on the frame: 15 on the so(3)* double over R^3."""
    P = poisson_double(PoissonManifoldData(3, [["0", "x3", "-x2"], ["-x3", "0", "x1"],
                                                ["x2", "-x1", "0"]]))
    seen = []
    direct = pair_module.dorfman

    def counting(pair, e1, e2):
        seen.append((str(e1), str(e2)))
        return direct(pair, e1, e2)

    monkeypatch.setattr(pair_module, "dorfman", counting)
    assert generator_check(P).passed
    frame = [str(e) for e in pair_module._double_sections(P, 0)]
    assert seen == [(e1, e2) for e2, e1 in itertools.combinations(frame, 2)]
    assert len(seen) == math.comb(2 * P.rank, 2) == 15


def test_derived_bracket_takes_each_frame_commutator_once(monkeypatch):
    """On the frame path generator_check takes [D, c(e1)] w once per
    (e1, w), before the loop, and [D, c(e1)] (e2 . w) once per (e2, e1, w)
    with e1 after e2.  The pair's D passes the Clifford-degree certificate,
    so w runs over 1, e_1, ..., e_n: 2n (1 + n) + C(2n, 2) (1 + n) = 84
    calls on the so(3)* double over R^3.  The certificate runs once and
    reads each D(e_K) once, in the order of the constant spinors."""
    P = poisson_double(PoissonManifoldData(3, [["0", "x3", "-x2"], ["-x3", "0", "x1"],
                                                ["x2", "-x1", "0"]]))
    commutators, reads, inside = [], [], []
    odd, dirac, certificate = (pair_module._odd_commutator, pair_module.dirac_apply,
                               pair_module._odd_clifford_degree_at_most_3)

    def counting_odd(pair, e, w):
        commutators.append((str(e), str(w)))
        return odd(pair, e, w)

    def counting_dirac(pair, u):
        if inside:
            reads.append(str(u))
        return dirac(pair, u)

    def counting_certificate(pair):
        inside.append(pair)
        try:
            return certificate(pair)
        finally:
            inside.clear()

    monkeypatch.setattr(pair_module, "_odd_commutator", counting_odd)
    monkeypatch.setattr(pair_module, "dirac_apply", counting_dirac)
    monkeypatch.setattr(pair_module, "_odd_clifford_degree_at_most_3", counting_certificate)
    assert generator_check(P).passed
    n = P.rank
    assert len(commutators) == 2 * n * (1 + n) + math.comb(2 * n, 2) * (1 + n) == 84
    frame = [str(e) for e in pair_module._double_sections(P, 0)]
    spinors = [str(w) for w in multivector_probes(P, 0)[:1 + n]]
    assert commutators[:2 * n * (1 + n)] == [(e, w) for e in frame for w in spinors]
    assert reads == [str(w) for w in multivector_probes(P, 0)]
    assert len(reads) == 2 ** n


def _abelian_point_pair(rank):
    """The abelian pair of the given rank over a point: D = 0."""
    return BialgebroidPair(point_algebra(rank, {}), point_algebra(rank, {}, "covector"))


def _normal_ordered(rank, terms):
    """u -> sum c e_I ^ iota_{eps^J} u over the (I, J, c) of terms, over a
    point: an operator written in normal order."""
    def op(u):
        out = Multivector.zero(rank, ())
        for I, J, c in terms:
            inner = interior_by_form(Form.monomial(rank, (), J, const(1)), u)
            out = out + Multivector.monomial(rank, (), I, const(c)).wedge(inner)
        return out
    return op


def test_clifford_degree_certificate_on_injected_terms(pn_failing_pairs, monkeypatch):
    """The Clifford-degree certificate on D plus a C-infinity-linear term,
    each on a freshly built pair, [D, f] and the anchor relation holding,
    and the derived-bracket witness is the full family's:
    * x1 e_1 ^ iota iota (degree 3) passes, and the loop on 1 and the e_i
      finds the full family's witness;
    * the matrix unit x1 u_23 e_2 (degree 5) fails, and the witness is at
      w = e[2,3];
    * e_1 ^ iota_{eps^{1234}} of rank 4 over a point fails though it
      vanishes on every e_K with |K| <= 3, and the witness is at
      w = e[2,3,4];
    * e_1 e_2 ^ iota_{eps^{345}} of rank 5 over a point, of contraction
      order 3 and degree 5, fails, and the witness is at w = e[3,4,5];
    * iota_{eps^{23}} of rank 4 over a point, even of degree 2, fails, and
      the witness is at w = e[2,3], which the spinors 1, e_i miss."""
    base = pn_failing_pairs[0]
    (_label, wedge_contract), (_unit_label, matrix_unit) = _odd_tensorial_terms(base)
    cases = [("x1 e1 ^ iota iota", base, wedge_contract, True, None),
             ("x1 u_23 e2", base, matrix_unit, False, "; w = e[2,3]; "),
             ("e1 ^ iota_1234", _abelian_point_pair(4),
              _normal_ordered(4, [((1,), (1, 2, 3, 4), 1)]), False, "; w = e[2,3,4]; "),
             ("e12 ^ iota_345", _abelian_point_pair(5),
              _normal_ordered(5, [((1, 2), (3, 4, 5), 1)]), False, "; w = e[3,4,5]; "),
             ("iota_23", _abelian_point_pair(4),
              _normal_ordered(4, [((), (2, 3), 1)]), False, "; w = e[2,3]; ")]
    direct = pair_module.dirac_apply
    for name, pair, term, certified, spinor in cases:
        monkeypatch.setattr(pair_module, "dirac_apply",
                            lambda Q, u, term=term: direct(Q, u) + term(u))
        P = fresh_pair(pair)
        assert pair_module._odd_clifford_degree_at_most_3(P) is certified, name
        rep = generator_check(P)
        assert rep.record("generator/commutator-function").passed, name
        assert rep.record("generator/anchor").passed, name
        got = rep.record("generator/derived-bracket").witness
        assert got is not None and got == _derived_bracket_oracle(P), name
        assert spinor is None or spinor in got, name
        monkeypatch.setattr(pair_module, "dirac_apply", direct)


def test_clifford_degree_certificate_passes_every_package_operator(corpus, failing_pairs,
                                                                  pn_failing_pairs):
    """D = dstar - boundary + 1/2 (X_0 ^ . + iota_{xi_0}) is a derivative
    part plus an odd Clifford element of degree <= 3 for any structure
    data, so
    the certificate passes on every corpus, failing and PN pair and on the
    quadratic double over R^4, whose rank 4 has spinors with |K| >= 4, on
    both sides."""
    pairs = [P for _label, P in corpus] + list(failing_pairs) + list(pn_failing_pairs)
    for P in pairs + [quadratic_double(4)]:
        for Q in (P, P.flipped()):
            assert pair_module._odd_clifford_degree_at_most_3(Q), P.label


_RANK_4_INDICES = [I for k in range(5) for I in itertools.combinations(range(1, 5), k)]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_RANK_4_INDICES), st.sampled_from(_RANK_4_INDICES),
                          st.integers(-2, 2)).filter(lambda t: (len(t[0]) + len(t[1])) % 2),
                min_size=1, max_size=4))
def test_clifford_degree_certificate_matches_the_normal_order(terms):
    """On the abelian rank-4 pair over a point with D plus a drawn odd
    operator sum c e_I ^ iota_{eps^J}, the certificate says whether every
    nonzero term of the summed normal order has |I| + |J| <= 3 (terms may
    cancel), and generator_check's derived-bracket witness is the full
    family's either way.  The even case is in
    test_clifford_degree_certificate_on_injected_terms."""
    summed = {}
    for I, J, c in terms:
        summed[I, J] = summed.get((I, J), 0) + c
    low_degree = all(len(I) + len(J) <= 3 for (I, J), c in summed.items() if c)
    term = _normal_ordered(4, terms)
    direct = pair_module.dirac_apply
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(pair_module, "dirac_apply", lambda Q, u: direct(Q, u) + term(u))
        P = _abelian_point_pair(4)
        assert pair_module._odd_clifford_degree_at_most_3(P) is low_degree
        got = generator_check(P).record("generator/derived-bracket").witness
        assert got == _derived_bracket_oracle(P)


def test_courant_and_generator_apply_no_anchor_to_functions(corpus, failing_pairs,
                                                            pn_failing_pairs, monkeypatch):
    """Every function the Courant and generator records apply an anchor to
    is a coordinate x_a or a frame metric <y, z>, a constant, so they read
    rho(x) x_a off the anchor field of x and call rho_apply nowhere."""
    seen = []
    direct = pair_module.rho_apply

    def counting(pair, e, f):
        seen.append((str(e), str(f)))
        return direct(pair, e, f)

    monkeypatch.setattr(pair_module, "rho_apply", counting)
    for P in [P for _label, P in corpus] + list(failing_pairs) + list(pn_failing_pairs):
        courant_axioms(P)
        generator_check(P)
        assert seen == [], P.label


def test_courant_builds_each_anchor_field_once(monkeypatch):
    """courant_axioms on the quadratic Poisson double pi^ij = x_i x_j at m = 4
    takes 56 anchor fields: one for each of the 8 frame sections, read by
    g3 and the anchor relation, and one for each fill of the defect table,
    the 44 nonzero frame brackets e_alpha o e_beta among the 64 and the 4
    D x_a.  A zero bracket takes none, and g2 builds no near section's
    field on a passing pair.  A second call on the same pair fills nothing
    and takes the frame's 8 fields alone."""
    P = quadratic_double(4)
    P.flipped().modular, P.modular
    seen = []
    direct = pair_module.rho_field

    def counting(pair, e):
        seen.append(str(e))
        return direct(pair, e)

    monkeypatch.setattr(pair_module, "rho_field", counting)
    assert courant_axioms(P).passed
    assert "0 (+) 0" not in seen
    frame = [str(x) for x in pair_module._double_sections(P, 0)]
    n, m = P.rank, len(P.coordinates)
    nonzero = sum(1 for key, entry in P._dorfman_table.items() if key[0] is not None and entry)
    assert (2 * n, nonzero, m) == (8, 44, 4)
    assert len(seen) == 56
    assert len(P._defect_table) == (2 * n) ** 2 + m
    seen.clear()
    assert courant_axioms(P).passed
    assert seen == frame


def test_defect_trace_takes_one_top_form_evaluation(corpus, monkeypatch):
    """A cold theorem_c_suite makes 56 Lie derivative calls on
    poisson-linear, and a warm one none.  The (c)/(d) trace defect is read
    off the trace tables of P and of P.flipped(), and the top-form
    coefficients a(x) are in closed form from the n constants a(e_i) and
    a(eps^j) of each side, so the top form is taken along the frame
    sections alone, once per structure, and no defect operator runs, on
    Omega or on the n eps^j.  The pair is built afresh, so the count
    includes the fills of its tables.  With n = m = 2, on P and on
    P.flipped() each:
    * the trace table's constants a(e_alpha) at (i,) and (-j,), one on the
      top form along each of the 2 n = 4 frame sections: 4;
    * one per Dorfman table entry e_i o eps^j, read by the trace table's
      fills of G_ij and sigma(E_ij) and by the defect table's fills, whose
      mixed term is a Lie derivative: n^2 = 4;
    * two (along A and along A*) per modular Lie table entry read by (k):
      1/2 (L_{X_0} + L_{xi_0}) e_I for the 4 index sets I and its
      [., x_a] e_I for the 3 with |I| <= 1, 10 entries, so 20.
    That is 28 per pair and 56 in all, the count before the trace table,
    whose V, W and Z terms take no Lie derivative.  A second call reads
    every table and takes none: before the trace table it took the 4 n = 8
    top-form Lie derivatives again, each call of _top_lie_coefficient
    taking its constants afresh."""
    Q = dict(corpus)["poisson-linear"]
    P = BialgebroidPair(Q.A, Q.Astar, Q.frame, Q.label)
    # the modular cocycles and the flip are P's own caches; take them first
    P.flipped().modular, P.modular
    seen = []
    direct = bialgebroid.AlgebroidStructure.lie_derivative

    def counting(side, x, target):
        seen.append((side, str(x), str(target)))
        return direct(side, x, target)

    monkeypatch.setattr(bialgebroid.AlgebroidStructure, "lie_derivative", counting)
    first = theorem_c_suite(P)
    assert first.passed
    assert len(seen) == 56
    omega = str(P.frame.omega)
    on_top = [(side, x) for side, x, target in seen if target == omega]
    frame = {f"e[{i}]" for i in range(1, P.rank + 1)} | {f"eps[{i}]" for i in range(1, P.rank + 1)}
    assert {x for _, x in on_top} == frame
    # both structures of P and of its flip, n frame sections each: the
    # mirror's structures are other objects, with x read in the flipped frame
    assert len(set(on_top)) == len(on_top) == 4 * P.rank
    seen.clear()
    assert theorem_c_suite(P).to_json() == first.to_json()
    assert seen == []


def _courant_oracle(P, degree):
    """g1's witness and the pass flags of the Courant records, found with
    every slot running over the sections x^gamma e_i, x^gamma eps^i and the
    functions x^gamma with |gamma| <= degree (at least 1): no reduction by
    the order of the defects.

    The witness is found without the skewness of the Jacobiator on the
    frame: the first failing triple of F^3 in product order, else, when g2
    fails first at (x, y) in N x F and at component a, (x, y, F[0]) or
    (x, y, x_a F[0]), where F = e_1, eps^1, .., e_n, eps^n and N adds the
    x_a e_i, x_a eps^i after each e_i, eps^i, as in courant_axioms.  The
    flags come from a function, so a caller that wants the witness alone
    pays only for the brackets it reads.  Brackets, anchors and metric
    values of the sections are each computed once, and the witness and the
    flags share them."""
    funcs = coordinate_monomials(P.coordinates, degree)
    secs = [SectionE.of(vec=P.basis_e(i).scaled(f)) for i in range(1, P.rank + 1) for f in funcs] \
        + [SectionE.of(cov=P.basis_eps(i).scaled(f)) for i in range(1, P.rank + 1) for f in funcs]
    bracket = functools.partial(pair_module._dorfman_direct, P)
    idx = range(len(secs))
    rho = [rho_field(P, x) for x in secs]

    @functools.cache
    def br(i, j):  # secs[i] o secs[j]
        return bracket(secs[i], secs[j])

    @functools.cache
    def nested(i, j, k):  # secs[i] o (secs[j] o secs[k])
        return bracket(secs[i], br(j, k))

    def jacobiator_vanishes(i, j, k):
        return nested(i, j, k) == bracket(br(i, j), secs[k]) + nested(j, i, k)

    def anchor_defect(i, j):  # the first a with rho(x o y)^a != [rho x, rho y]^a, or None
        lhs, rhs = rho_field(P, br(i, j)), field_bracket(rho[i], rho[j], P.coordinates)
        return next((a for a, (p, q) in enumerate(zip(lhs, rhs)) if p != q), None)

    n, size, near_size = P.rank, len(funcs), 1 + len(P.coordinates)
    frame = [s for i in range(n) for s in (i * size, (n + i) * size)]
    near = [s + k for i in range(n) for k in range(near_size) for s in (i * size, (n + i) * size)]
    found = next(((i, j, k) for i, j, k in itertools.product(frame, repeat=3)
                  if not jacobiator_vanishes(i, j, k)), None)
    if found is None:
        defect = next(((i, j, a) for i, j in itertools.product(near, frame)
                       for a in [anchor_defect(i, j)] if a is not None), None)
        if defect is not None:
            i, j, a = defect
            # secs[1 + a] is x_a e_1: funcs lists 1, then x_1 .. x_m
            found = next((i, j, k) for k in (frame[0], 1 + a) if not jacobiator_vanishes(i, j, k))
    g1_witness = None if found is None else \
        "x = {}; y = {}; z = {}".format(*(secs[t] for t in found))

    def along(i, g):  # rho(secs[i]) g
        return sum((c * g.diff(v) for c, v in zip(rho[i], P.coordinates)),
                   Polynomial.zero(P.coordinates))

    def flags():
        met = [[metric(x, y) for y in secs] for x in secs]
        # <x o y, z> for every triple; the metric is symmetric
        mbr = [[[metric(br(i, j), z) for z in secs] for j in idx] for i in idx]
        pairs = list(itertools.product(idx, repeat=2))
        triples = list(itertools.product(idx, repeat=3))
        return {
            "courant/g1": all(jacobiator_vanishes(i, j, k) for i, j, k in triples),
            "courant/g2": all(anchor_defect(i, j) is None for i, j in pairs),
            "courant/g3": all(bracket(secs[i], secs[j].scaled(f)) == br(i, j).scaled(f)
                              + secs[j].scaled(along(i, f))
                              for (i, j), f in itertools.product(pairs, funcs)),
            "courant/g4": all(br(i, j) + br(j, i) == dee(P, met[i][j]).scaled(2)
                              for i, j in pairs),
            "courant/g5": all(bracket(dee(P, f), x).is_zero() for f in funcs for x in secs),
            "courant/g6": all(along(i, met[j][k]) == mbr[i][j][k] + mbr[i][k][j]
                              for i, j, k in triples),
            "courant/anchor": all(metric(dee(P, f), secs[i]) * 2 == along(i, f)
                                  for f in funcs for i in idx),
        }

    return g1_witness, flags


def test_courant_records_match_every_slot(corpus, failing_pairs, pn_failing_pairs):
    """Oracle for the order reductions of courant_axioms: each record's pass
    flag equals a check with every slot over the monomial families, |gamma|
    <= 2 (|gamma| <= 1 on the pairs over R^3), g1's witness, None included,
    equals the one found on all of F^3, on P and on P.flipped(), and the
    suite passes exactly when D^2 is a scalar (Liu-Weinstein-Xu)."""
    cases = [(label, P, 2) for label, P in corpus + [(P.label, P) for P in failing_pairs]] \
        + [(P.label, P, 1) for P in pn_failing_pairs]
    g1_failures = 0
    for label, P, degree in cases:
        rep = courant_axioms(P)
        g1_witness, flags = _courant_oracle(P, degree)
        assert {r.id: r.passed for r in rep.records} == flags(), label
        assert rep.record("courant/g1").witness == g1_witness, label
        assert rep.passed == dirac_square(P).is_scalar, label
        # the witness reads sections with |gamma| <= 1 only
        mirror = _courant_oracle(P.flipped(), 1)[0]
        assert courant_axioms(P.flipped()).record("courant/g1").witness == mirror, label
        g1_failures += (g1_witness is not None) + (mirror is not None)
    assert g1_failures == 2 * (len(failing_pairs) + len(pn_failing_pairs))


def test_every_export_resolves_once():
    names = bialgebroid.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(bialgebroid, name), name


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
