"""The top-form coefficient x -> a(x) of the thm-c trace in closed form,
the function Laplacians of thm-c (g)/(h) once per monomial, and the frame
tables (FrameTable) of the differential, of the Schouten bracket, of D,
of the Dorfman bracket, of the Courant anchor defect, of [D, c(e)], of
the Laplacian, of the half modular Lie derivative and of the thm-c trace
defect: exact against the
direct operators, each table entry filled once and kept for the life of
its owner, and the same reports from cold and warm tables."""

import gc
import json
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bialgebroid import (AlgebroidStructure, BialgebroidPair, Form, Multivector, Polynomial,
                         PreconditionError, SectionE, clifford_act, coordinate_monomials,
                         corollary_suite, courant_axioms, dirac_apply, dirac_square,
                         dirac_star_apply, dirac_star_square, dorfman, find_counterexample_pairs,
                         generator_check, is_lie_bialgebroid, laplacian, multivector_probes,
                         rho_field, theorem_c_suite)
from bialgebroid.algebroid import FrameTable
from bialgebroid import pair as pair_module
from bialgebroid.exterior import interior_by_form, pairing, retype

from conftest import (fresh_pair, log_canonical_double, quadratic_double,
                      tangent_against_solvable, tangent_against_tangent)


@pytest.fixture(scope="session")
def all_pairs(corpus, failing_pairs):
    return [P for _label, P in corpus] + list(failing_pairs)


def operators(P):
    """(name, input class, operator) for the operators the decisions apply."""
    return [
        ("D", Multivector, lambda u: dirac_apply(P, u)),
        ("dstar", Multivector, P.dstar),
        ("Lap", Multivector, lambda u: laplacian(P, u)),
        ("D*", Form, lambda t: dirac_star_apply(P, t)),
        ("d", Form, P.d),
        ("Lap*", Form, lambda t: laplacian(P, t)),
    ]


rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def elements(draw, cls, rank, coords, power=2):
    """Mixed-degree elements with rational coefficients of degree <= 3,
    each variable to at most the given power; may be zero."""
    subsets = [tuple(i for i in range(1, rank + 1) if mask >> (i - 1) & 1)
               for mask in range(2 ** rank)]
    exps = st.tuples(*[st.integers(0, power) for _ in coords]).filter(lambda e: sum(e) <= 3)
    poly = st.dictionaries(exps, rationals, max_size=3).map(lambda t: Polynomial(coords, t))
    terms = draw(st.dictionaries(st.sampled_from(subsets), poly, max_size=4))
    return cls(rank, coords, terms)


def test_zero_and_kernel_elements(all_pairs):
    """Each operator maps zero, constants (killed by dstar, d and both
    Laplacians) and images of the differentials (killed by the differential
    again) to zero of its input's class."""
    for P in all_pairs:
        one = Polynomial.const(P.coordinates, Fraction(-7, 3))
        u = Multivector(P.rank, P.coordinates,
                        {(1,): one, (1, 2): one, (): one})
        theta = Form(P.rank, P.coordinates, {(1,): one, (2,): one})
        kernel = {"dstar": [P.scalar_mv(one), P.dstar(u)],
                  "d": [P.scalar_form(one), P.d(theta)],
                  "Lap": [P.scalar_mv(one)], "Lap*": [P.scalar_form(one)]}
        for name, cls, op in operators(P):
            zero = cls.zero(P.rank, P.coordinates)
            assert op(zero) == zero, (P.label, name)
            for x in kernel.get(name, []):
                got = op(x)
                assert type(got) is cls and got.is_zero(), (P.label, name, str(x))


def direct_dirac(P, u):
    """D u by the formula dstar - boundary + 1/2 (X_0 ^ . + iota_{xi_0}),
    with no table."""
    mod, half = P.modular, Fraction(1, 2)
    return P.dstar(u) - P.boundary(u) \
        + mod.x0.wedge(u).scaled(half) + interior_by_form(mod.xi0, u).scaled(half)


@pytest.fixture(scope="module")
def table_pairs(corpus, failing_pairs, pn_failing_pairs):
    pairs = [P for _label, P in corpus] + list(failing_pairs) + list(pn_failing_pairs) \
        + [log_canonical_double()]
    assert any(not P.coordinates for P in pairs) and any(P.coordinates for P in pairs)
    return pairs


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dirac_table_matches_the_direct_formula(table_pairs, data):
    """dirac_apply reads D term by term off the pair's D table; on every
    pair, over a point and over a base, it gives the formula's value, and
    so does dirac_star_apply, which reads the table of P.flipped()."""
    P = data.draw(st.sampled_from(table_pairs))
    us = data.draw(st.lists(elements(Multivector, P.rank, P.coordinates), min_size=1, max_size=3))
    for u in us:
        assert dirac_apply(P, u) == direct_dirac(P, u), (P.label, str(u))
    thetas = data.draw(st.lists(elements(Form, P.rank, P.coordinates), min_size=1, max_size=3))
    for theta in thetas:
        want = retype(direct_dirac(P.flipped(), retype(theta)))
        assert dirac_star_apply(P, theta) == want, (P.label, str(theta))


def test_generator_check_fills_each_D_table_entry_once(corpus, monkeypatch):
    """generator_check reads D off the pair's D table: on a pair with an
    empty table the first call fills each entry (I, a) at most once, a
    second call fills none, and both print the same report."""
    Q = dict(corpus)["poisson-linear"]
    P = BialgebroidPair(Q.A, Q.Astar, Q.frame, Q.label)
    filled = []
    fill = pair_module._dirac_entry

    def counting(pair, I, a):
        filled.append((I, a))
        return fill(pair, I, a)

    monkeypatch.setattr(pair_module, "_dirac_entry", counting)
    first = json.dumps(generator_check(P).to_json())
    assert filled and len(set(filled)) == len(filled)
    assert set(P._dirac_tables) == set(filled)
    filled.clear()
    assert json.dumps(generator_check(P).to_json()) == first
    assert filled == []


def direct_laplacian(P, u):
    """d_* boundary + boundary d_* on a Multivector, d boundary_* +
    boundary_* d on a Form, with no table."""
    if isinstance(u, Form):
        return P.d(P.boundary_star(u)) + P.boundary_star(P.d(u))
    return P.dstar(P.boundary(u)) + P.boundary(P.dstar(u))


def direct_half_modular_lie(P, u):
    """1/2 (L_{X_0} + L_{xi_0}) u by the Lie derivatives of both
    structures, with no table."""
    mod = P.modular
    return (P.A.lie_derivative(mod.x0, u)
            + P.Astar.lie_derivative(mod.xi0, u)).scaled(Fraction(1, 2))


def test_laplacian_and_modular_lie_tables_match_on_every_probe(table_pairs):
    """laplacian reads the Laplacian off the pair's order-2 table and
    _half_modular_lie the half modular Lie derivative off its order-1
    table; on every pair and on its flip, over a point and over a base,
    both give the direct formulas on every x^gamma e_I and x^gamma eps^I
    with |gamma| <= 3, so each C(gamma_a, 2) and each gamma_a gamma_b of the
    second-order expansion is exercised."""
    for P in table_pairs:
        for Q in (P, P.flipped()):
            for u in multivector_probes(Q, 3):
                for x in (u, retype(u)):
                    assert laplacian(Q, x) == direct_laplacian(Q, x), (Q.label, str(x))
                    assert pair_module._half_modular_lie(Q, x) == direct_half_modular_lie(Q, x), \
                        (Q.label, str(x))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_laplacian_and_modular_lie_tables_match_the_direct_formulas(table_pairs, data):
    """On every pair and on its flip, over a point and over a base, the
    table reads of the Laplacian and of the half modular Lie derivative
    equal the direct formulas on Multivectors and Forms of mixed degree
    with rational coefficients, |gamma| <= 3 and a variable to the third
    power, and on zero.  The failing pairs matter: on a bialgebroid the
    second-order entries [[Lap, x_a], x_b] e_I can vanish, so a wrong
    second-order coefficient would show on them alone."""
    P = data.draw(st.sampled_from(table_pairs))
    P = data.draw(st.sampled_from([P, P.flipped()]))
    for cls in (Multivector, Form):
        xs = data.draw(st.lists(elements(cls, P.rank, P.coordinates, power=3),
                                min_size=1, max_size=3))
        for x in xs + [cls.zero(P.rank, P.coordinates)]:
            assert laplacian(P, x) == direct_laplacian(P, x), (P.label, str(x))
            assert pair_module._half_modular_lie(P, x) == direct_half_modular_lie(P, x), \
                (P.label, str(x))


def test_laplacian_and_modular_lie_tables_fill_each_entry_once(corpus, monkeypatch):
    """dirac_square, theorem_c_suite and corollary_suite read the Laplacian
    and the half modular Lie derivative off the tables of P and of
    P.flipped(): on a freshly built pair each entry is filled once, at most
    2^n (1 + m + m (m + 1) / 2) Laplacian and 2^n (1 + m) modular Lie
    entries per pair, and a second call of the three fills none and prints
    the same bytes."""
    filled = {"lap": [], "lie": []}
    fills = {"lap": pair_module._laplacian_entry, "lie": pair_module._modular_lie_entry}

    def counting(name):
        def wrapped(pair, *key):
            filled[name].append((pair, key))
            return fills[name](pair, *key)
        return wrapped

    monkeypatch.setattr(pair_module, "_laplacian_entry", counting("lap"))
    monkeypatch.setattr(pair_module, "_modular_lie_entry", counting("lie"))
    P = fresh_pair(dict(corpus)["poisson-linear"])
    n, m = P.rank, len(P.coordinates)
    suites = (dirac_square, theorem_c_suite, corollary_suite)
    first = [json.dumps(suite(P).to_json()) for suite in suites]
    for name, attr, bound in (("lap", "_laplacian_table", 2 ** n * (1 + m + m * (m + 1) // 2)),
                              ("lie", "_modular_lie_table", 2 ** n * (1 + m))):
        seen = filled[name]
        assert seen and len(set(seen)) == len(seen), name
        for owner in (P, P.flipped()):
            keys = [key for pair, key in seen if pair is owner]
            assert set(getattr(owner, attr)) == set(keys), name
            assert 0 < len(keys) <= bound, name
    assert any(len(key) == 3 for _, key in filled["lap"])
    for seen in filled.values():
        seen.clear()
    assert [json.dumps(suite(P).to_json()) for suite in suites] == first
    assert filled == {"lap": [], "lie": []}


def _frame_tables(owner):
    """Every FrameTable an owner holds, those nested in a table included."""
    out = [v for v in vars(owner).values() if isinstance(v, FrameTable)]
    return out + [t for table in out for t in table.values() if isinstance(t, FrameTable)]


def test_warm_dirac_square_reads_its_tables_alone(monkeypatch):
    """A second dirac_square on the same pair fills no entry of any table of
    the pair, its flip or their structures, and takes no Schouten bracket,
    no Lie derivative and one differential, the boundary of X_0 in f~: the
    square formula's Laplacian and half modular Lie derivative run off
    their tables like D."""
    P = log_canonical_double()
    first = json.dumps(dirac_square(P).to_json())
    owners = (P, P.A, P.Astar, P.flipped(), P.flipped().A, P.flipped().Astar)
    sizes = [len(t) for owner in owners for t in _frame_tables(owner)]
    calls = {"schouten": [], "lie_derivative": [], "differential": []}

    def counting(name):
        direct = getattr(AlgebroidStructure, name)

        def wrapped(side, *args):
            calls[name].append((side, *args))
            return direct(side, *args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(AlgebroidStructure, name, counting(name))
    assert json.dumps(dirac_square(P).to_json()) == first
    assert [len(t) for owner in owners for t in _frame_tables(owner)] == sizes
    assert calls["schouten"] == calls["lie_derivative"] == []
    [(side, phi)] = calls["differential"]
    assert side is P.A and isinstance(phi, Form) and phi.degrees() == [P.rank - 1]


@st.composite
def degree1(draw, cls, rank, coords, max_degree=3):
    """Degree-1 elements: rational combinations of x^gamma e_i (or x^gamma
    eps^j) with |gamma| <= max_degree; may be zero."""
    exps = st.tuples(*[st.integers(0, 2) for _ in coords]).filter(lambda e: sum(e) <= max_degree)
    poly = st.dictionaries(exps, rationals, max_size=3).map(lambda t: Polynomial(coords, t))
    slots = st.sampled_from([(i,) for i in range(1, rank + 1)])
    return cls(rank, coords, draw(st.dictionaries(slots, poly, max_size=rank)))


@st.composite
def sections(draw, rank, coords):
    """Sections of the double with |gamma| <= 2; either part (or both) may be zero."""
    return SectionE(draw(degree1(Multivector, rank, coords, 2)),
                    draw(degree1(Form, rank, coords, 2)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dorfman_table_matches_the_direct_formula(table_pairs, data):
    """dorfman reads every bracket term by term off the pair's Dorfman
    table; on every pair and on its flip, over a point and over a base, it
    gives the direct formula's value on sections with |gamma| <= 2,
    rational coefficients and zero parts, in both orders."""
    P = data.draw(st.sampled_from(table_pairs))
    P = data.draw(st.sampled_from([P, P.flipped()]))
    xs = data.draw(st.lists(sections(P.rank, P.coordinates), min_size=1, max_size=3))
    for x in xs + [SectionE.zero(P.rank, P.coordinates)]:
        for y in xs:
            for a, b in ((x, y), (y, x)):
                want = pair_module._dorfman_direct(P, a, b)
                assert dorfman(P, a, b) == want, (P.label, str(a), str(b))


def direct_anchor_defect(P, x, y):
    """rho(x o y) - [rho x, rho y] by _anchor_defect, with the bracket by
    the direct formula and no table."""
    lhs, rhs = pair_module._anchor_defect(P, rho_field(P, x), rho_field(P, y),
                                          pair_module._dorfman_direct(P, x, y))
    return tuple(p - q for p, q in zip(lhs, rhs))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_defect_table_matches_the_anchor_defect(table_pairs, data):
    """_anchor_defect_field reads the Courant anchor defect term by term off
    the pair's defect table; on every pair and on its flip, over a point
    and over a base, it gives _anchor_defect's lhs - rhs on sections with
    |gamma| <= 2, rational coefficients and zero parts, in both orders."""
    P = data.draw(st.sampled_from(table_pairs))
    P = data.draw(st.sampled_from([P, P.flipped()]))
    xs = data.draw(st.lists(sections(P.rank, P.coordinates), min_size=1, max_size=3))
    for x in xs + [SectionE.zero(P.rank, P.coordinates)]:
        for y in xs:
            for a, b in ((x, y), (y, x)):
                want = direct_anchor_defect(P, a, b)
                assert pair_module._anchor_defect_field(P, a, b) == want, \
                    (P.label, str(a), str(b))


def test_defect_table_filled_once_and_read_by_both_callers(corpus, monkeypatch):
    """courant_axioms and theorem_c_suite read every anchor defect off the
    defect tables of P and of P.flipped(): on a passing pair with empty
    tables each entry is filled once, at most 4 n^2 + m per pair, and
    _anchor_defect and field_bracket run in the fills of frame defects
    alone, never in a probe loop; a second call of either suite fills
    none, calls neither and prints the same report."""
    Q = dict(corpus)["poisson-linear"]
    P = BialgebroidPair(Q.A, Q.Astar, Q.frame, Q.label)
    n, m = P.rank, len(P.coordinates)
    calls = {"fill": [], "_anchor_defect": 0, "field_bracket": 0}
    fill = pair_module._defect_entry

    def filling(pair, alpha, b):
        calls["fill"].append((pair, alpha, b))
        return fill(pair, alpha, b)

    def counting(name):
        direct = getattr(pair_module, name)

        def wrapped(*args):
            calls[name] += 1
            return direct(*args)
        return wrapped

    monkeypatch.setattr(pair_module, "_defect_entry", filling)
    for name in ("_anchor_defect", "field_bracket"):
        monkeypatch.setattr(pair_module, name, counting(name))
    first = [json.dumps(suite(P).to_json()) for suite in (courant_axioms, theorem_c_suite)]
    fills = calls["fill"]
    assert fills and len(set(fills)) == len(fills)
    for owner in (P, P.flipped()):
        keys = [(alpha, b) for pair, alpha, b in fills if pair is owner]
        assert set(owner._defect_table) == set(keys)
        assert 0 < len(keys) <= (2 * n) ** 2 + m
    frame_fills = sum(1 for _, alpha, _ in fills if alpha is not None)
    assert calls["_anchor_defect"] == calls["field_bracket"] == frame_fills
    calls.update({"fill": [], "_anchor_defect": 0, "field_bracket": 0})
    again = [json.dumps(suite(P).to_json()) for suite in (courant_axioms, theorem_c_suite)]
    assert again == first
    assert calls == {"fill": [], "_anchor_defect": 0, "field_bracket": 0}


def direct_odd_commutator(P, e, w):
    """[D, c(e)] w = D(e . w) + e . D(w) with D by the formula, no table."""
    return direct_dirac(P, clifford_act(e, w)) + clifford_act(e, direct_dirac(P, w))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_commutator_table_matches_d_c_plus_c_d(table_pairs, data):
    """_odd_commutator reads [D, c(e)] term by term off the pair's
    commutator tables; on every pair and on its flip, over a point and over
    a base, it gives D c(e) + c(e) D with D by the formula, on sections
    with |gamma| <= 2, rational coefficients and zero parts, and on spinors
    of mixed degree and zero."""
    P = data.draw(st.sampled_from(table_pairs))
    P = data.draw(st.sampled_from([P, P.flipped()]))
    es = data.draw(st.lists(sections(P.rank, P.coordinates), min_size=1, max_size=3))
    ws = data.draw(st.lists(elements(Multivector, P.rank, P.coordinates), min_size=1, max_size=3))
    for e in es + [SectionE.zero(P.rank, P.coordinates)]:
        for w in ws + [Multivector.zero(P.rank, P.coordinates)]:
            assert pair_module._odd_commutator(P, e, w) == direct_odd_commutator(P, e, w), \
                (P.label, str(e), str(w))


def test_generator_check_fills_each_commutator_entry_once(corpus, monkeypatch):
    """generator_check reads each [D, c(e_alpha)] off its table in the
    pair's commutator tables: on a freshly built pair each entry is filled
    once, at most 2n 2^n (1 + m) in all.  The frame family fills only the
    [D, c(e_alpha)] e_I; the order-1 fallback, which runs when D is broken
    by a coordinate derivative, also fills first-order entries.  A second
    call fills none and prints the same report."""
    filled = []
    fill, direct = pair_module._commutator_entry, pair_module.dirac_apply

    def counting(pair, alpha, I, a):
        filled.append((alpha, I, a))
        return fill(pair, alpha, I, a)

    def broken(Q, u):
        return direct(Q, u) + Multivector(u.rank, u.variables, {
            ix: p.diff(Q.coordinates[-1]) for ix, p in u.terms.items()})

    monkeypatch.setattr(pair_module, "_commutator_entry", counting)
    for dirac, frame_path in ((direct, True), (broken, False)):
        monkeypatch.setattr(pair_module, "dirac_apply", dirac)
        P = fresh_pair(dict(corpus)["poisson-linear"])
        n, m = P.rank, len(P.coordinates)
        filled.clear()
        first = json.dumps(generator_check(P).to_json())
        assert filled and len(set(filled)) == len(filled), frame_path
        stored = {(alpha, *key) for alpha, table in P._commutator_tables.items() for key in table}
        assert stored == set(filled), frame_path
        assert len(filled) <= 2 * n * 2 ** n * (1 + m), frame_path
        first_order = [key for key in filled if key[2] is not None]
        assert (first_order == []) is frame_path
        filled.clear()
        assert json.dumps(generator_check(P).to_json()) == first, frame_path
        assert filled == [], frame_path


def test_pairing_witnesses_take_each_function_laplacian_once_per_monomial(monkeypatch):
    """thm-c (g)/(h) take the function Laplacian of each side once per
    monomial x^gamma of the pairings <theta, u>: on the quadratic double at
    m = 4 those are the 15 monomials with |gamma| <= 2, so the loop takes
    30 degree-0 Laplacians, each on a different input, where one per
    (theta, u) pair and side would take 800.  A Laplacian on a Form runs
    the Multivector one on P.flipped(), so those calls count each once."""
    P = quadratic_double(4)
    P.flipped().modular, P.modular
    seen = []
    direct = pair_module.laplacian

    def counting(Q, target):
        if isinstance(target, Multivector) and target.max_degree() <= 0:
            seen.append((Q is P, str(target)))
        return direct(Q, target)

    monkeypatch.setattr(pair_module, "laplacian", counting)
    assert pair_module._pairing_witnesses(P) == (None, None)
    assert len(coordinate_monomials(P.coordinates, 2)) == 15
    assert len(seen) == len(set(seen)) == 2 * 15


def test_bracket_on_monomial_sections_and_zero(all_pairs):
    """Every ordered pair of sections x^gamma e_i, x^gamma eps^j (|gamma| <= 1),
    of their sum and of zero: the table reads of the bracket and of the
    anchor defect equal the direct formulas, so no entry, anchor term,
    D x_a term or rho(D x_a) term stands in for another."""
    for P in all_pairs:
        units = [SectionE.of(vec=P.basis_e(i).scaled(f)) for i in range(1, P.rank + 1)
                 for f in coordinate_monomials(P.coordinates, 1)]
        units += [SectionE.of(cov=P.basis_eps(i).scaled(f)) for i in range(1, P.rank + 1)
                  for f in coordinate_monomials(P.coordinates, 1)]
        total = units[0]
        for e in units[1:]:
            total = total + e
        inputs = units + [total, SectionE.zero(P.rank, P.coordinates)]
        for a in inputs:
            for b in inputs:
                want = pair_module._dorfman_direct(P, a, b)
                assert dorfman(P, a, b) == want, (P.label, str(a), str(b))
                lhs, rhs = pair_module._anchor_defect(P, rho_field(P, a), rho_field(P, b), want)
                assert pair_module._anchor_defect_field(P, a, b) == \
                    tuple(p - q for p, q in zip(lhs, rhs)), (P.label, str(a), str(b))


def test_courant_axioms_bracket_once_per_monomial_pair(corpus, monkeypatch):
    """courant_axioms reads every bracket off the pair's Dorfman table and
    every anchor defect off its defect table: on a pair with empty tables
    the first call fills each entry of each table, a pair of frame
    sections (monomials over a point) or a D x_a, at most once, and every
    defect entry a passing g2 reads, all 4 n^2 + m of them; a second call
    fills none and prints the same report."""
    filled = {"dorfman": [], "defect": []}

    def counting(name, fill):
        def wrapped(pair, alpha, b):
            filled[name].append((alpha, b))
            return fill(pair, alpha, b)
        return wrapped

    monkeypatch.setattr(pair_module, "_dorfman_entry",
                        counting("dorfman", pair_module._dorfman_entry))
    monkeypatch.setattr(pair_module, "_defect_entry",
                        counting("defect", pair_module._defect_entry))
    for label in ("exact-so3", "poisson-linear"):
        Q = dict(corpus)[label]
        P = BialgebroidPair(Q.A, Q.Astar, Q.frame, Q.label)
        n, m = P.rank, len(P.coordinates)
        for seen in filled.values():
            seen.clear()
        first = json.dumps(courant_axioms(P).to_json())
        for name, table in (("dorfman", P._dorfman_table), ("defect", P._defect_table)):
            seen = filled[name]
            assert seen and len(set(seen)) == len(seen), (label, name)
            assert set(table) == set(seen), (label, name)
            assert len(seen) <= (2 * n) ** 2 + m, (label, name)
        assert len(P._defect_table) == (2 * n) ** 2 + m, label
        for seen in filled.values():
            seen.clear()
        assert json.dumps(courant_axioms(P).to_json()) == first, label
        assert filled == {"dorfman": [], "defect": []}, label


def lie_direct(P, x, t):
    return (P.A if isinstance(x, Multivector) else P.Astar).lie_derivative(x, t)


def top_coefficient_direct(P, x):
    """The coefficient on Omega of L_x Omega, by the Lie derivative itself."""
    return lie_direct(P, x, P.frame.omega).coefficient(P.frame.top_index)


def test_top_lie_coefficient_on_monomials_and_zero(all_pairs):
    """The closed form a(x) equals the coefficient of L_x Omega on Omega for
    every x^gamma e_i and x^gamma eps^j with |gamma| <= 2, the sum of each
    kind and zero, on P and on its flip: along A by the Cartan formula,
    along A* by the Schouten bracket, whose anchor term carries the minus
    sign."""
    for P in all_pairs:
        monos = coordinate_monomials(P.coordinates, 2)
        for Q in (P, P.flipped()):
            inputs = []
            for cls in (Multivector, Form):
                units = [cls.monomial(Q.rank, Q.coordinates, (i,), f)
                         for i in range(1, Q.rank + 1) for f in monos]
                total = units[0]
                for x in units[1:]:
                    total = total + x
                inputs += [cls.zero(Q.rank, Q.coordinates)] + units + [total]
            a = pair_module._top_lie_coefficient(Q)
            for x in inputs:
                assert a(x) == top_coefficient_direct(Q, x), (Q.label, str(x))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_top_lie_coefficient_equals_the_direct_one(all_pairs, data):
    P = data.draw(st.sampled_from(all_pairs))
    P = data.draw(st.sampled_from([P, P.flipped()]))
    classes = st.sampled_from([Multivector, Form])
    xs = data.draw(st.lists(classes.flatmap(lambda c: degree1(c, P.rank, P.coordinates)),
                            min_size=1, max_size=4))
    a = pair_module._top_lie_coefficient(P)
    for x in xs + [xs[0].scaled(Fraction(-3, 2)), xs[0] + xs[0].scaled(Fraction(1, 3))]:
        assert a(x) == top_coefficient_direct(P, x), (P.label, str(x))


def _key(x):
    return tuple(sorted((ix, tuple(p.terms.items())) for ix, p in x.terms.items()))


def test_defect_witness_takes_top_lie_once_per_monomial(corpus, monkeypatch):
    """On a freshly built pair _defect_witness takes L_x Omega once for each
    frame monomial, x = e_i along A and x = eps^j along A*, and along
    nothing else: the trace table's fills at (i,) and (-j,).  A second call
    reads the trace table alone: it takes no Lie derivative, builds no
    closed form a(x), fills no entry and keeps nothing new on the pair."""
    Q = dict(corpus)["poisson-linear"]
    P = BialgebroidPair(Q.A, Q.Astar, Q.frame, Q.label)
    omega = P.frame.omega
    seen, built = [], []
    lie, closed_form = AlgebroidStructure.lie_derivative, pair_module._top_lie_coefficient

    def counting_lie(self, x, target):
        if type(target) is type(omega) and target == omega:
            seen.append(x)
        return lie(self, x, target)

    def counting_closed_form(Q):
        built.append(Q)
        return closed_form(Q)

    monkeypatch.setattr(AlgebroidStructure, "lie_derivative", counting_lie)
    monkeypatch.setattr(pair_module, "_top_lie_coefficient", counting_closed_form)
    frame = sorted((type(s).__name__, _key(s)) for side in (P.A, P.Astar)
                   for s in (side.basis_section(i) for i in range(1, P.rank + 1)))
    before = dict(vars(P))
    first = pair_module._defect_witness(P)
    assert built and set(built) == {P}
    assert sorted((type(x).__name__, _key(x)) for x in seen) == frame
    sizes = {name: len(table) for name, table in vars(P).items() if isinstance(table, FrameTable)}
    seen.clear()
    built.clear()
    assert pair_module._defect_witness(P) == first
    assert built == seen == []
    assert {name: len(table) for name, table in vars(P).items()
            if isinstance(table, FrameTable)} == sizes
    assert vars(P).keys() == before.keys()
    assert all(vars(P)[k] is v for k, v in before.items())


def direct_trace_residual(P, u, theta):
    """T(u, theta) - 2 <d theta, dstar u>, with T the trace of
    _defect_trace on the direct formula's Dorfman bracket: no trace table
    entry but the constants a(e_alpha)."""
    a, trace_of = pair_module._defect_trace(P)
    su, sth = SectionE.of(vec=u), SectionE.of(cov=theta)
    trace = trace_of(pair_module._dorfman_direct(P, su, sth), rho_field(P, su),
                     rho_field(P, sth), a(u), a(theta))
    return trace - 2 * pairing(P.d(theta), P.dstar(u))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_trace_table_matches_the_direct_trace_defect(table_pairs, data):
    """_trace_residual reads the thm-c (c) trace defect G(u, theta) =
    T(u, theta) - 2 <d theta, dstar u> off the pair's trace table; on every
    pair and on its flip, over a point and over a base, it equals the
    direct formula on degree-1 sections outside the probe family: rational
    combinations of x^gamma e_i and x^gamma eps^j with |gamma| <= 2, zero
    parts and zero included."""
    P = data.draw(st.sampled_from(table_pairs))
    P = data.draw(st.sampled_from([P, P.flipped()]))
    draws = st.tuples(degree1(Multivector, P.rank, P.coordinates, 2),
                      degree1(Form, P.rank, P.coordinates, 2))
    pairs = data.draw(st.lists(draws, min_size=1, max_size=3))
    zero_u, zero_theta = Multivector.zero(P.rank, P.coordinates), Form.zero(P.rank, P.coordinates)
    for u, theta in pairs + [(pairs[0][0], zero_theta), (zero_u, pairs[0][1])]:
        assert pair_module._trace_residual(P, u, theta) == direct_trace_residual(P, u, theta), \
            (P.label, str(u), str(theta))


def test_trace_table_on_monomial_sections_and_their_sums(table_pairs):
    """Every pair of sections x^gamma e_i, x^gamma eps^j with |gamma| <= 1,
    and of the sums of each kind, on P and on its flip: the table read of
    the trace defect equals the direct formula, so no G_ij, V_ij^a, W_ij^b
    or Z_ij^ab term stands in for another.  Z is nonzero on
    tangent_against_tangent, where it is -2 delta_ij delta_ab."""
    for P in table_pairs:
        for Q in (P, P.flipped()):
            us = pair_module.degree1_multivector_probes(Q, 1)
            thetas = pair_module.degree1_form_probes(Q, 1)
            for u in us + [sum(us[1:], us[0])]:
                for theta in thetas + [sum(thetas[1:], thetas[0])]:
                    assert pair_module._trace_residual(Q, u, theta) == \
                        direct_trace_residual(Q, u, theta), (Q.label, str(u), str(theta))
    P = tangent_against_tangent()
    assert P._trace_table[1, 1][3][0][0] == (((), {(0, 0): Fraction(-2)}),)


def test_trace_table_filled_once_and_read_alone_by_a_warm_defect_witness(
        corpus, failing_pairs, monkeypatch):
    """theorem_c_suite reads the (c)/(d) trace defect off the trace tables
    of P and of P.flipped(): on a freshly built pair each entry is filled
    once, at most n^2 + 2n per pair, and a second call fills none and
    prints the same bytes as the cold call, on a passing pair and on
    failing ones, over a point and over a base.  On a warm passing pair
    _defect_witness's loop makes no Dorfman bracket, a(.), anchor field,
    vector field application, pairing or Lie derivative."""
    filled = []
    fill = pair_module._trace_entry

    def counting(pair, *key):
        filled.append((pair, key))
        return fill(pair, *key)

    monkeypatch.setattr(pair_module, "_trace_entry", counting)
    for Q in [dict(corpus)["poisson-linear"], tangent_against_solvable()] + list(failing_pairs[:2]):
        P = fresh_pair(Q)
        n = P.rank
        filled.clear()
        first = json.dumps(theorem_c_suite(P).to_json())
        assert filled and len(set(filled)) == len(filled), P.label
        for owner in (P, P.flipped()):
            keys = [key for pair, key in filled if pair is owner]
            assert set(owner._trace_table) == set(keys), P.label
            assert 0 < len(keys) <= n * n + 2 * n, P.label
        filled.clear()
        assert json.dumps(theorem_c_suite(P).to_json()) == first, P.label
        assert filled == [], P.label
    P = fresh_pair(dict(corpus)["poisson-linear"])
    assert pair_module._defect_witness(P) is None
    calls = []
    filled.clear()
    for name in ("dorfman", "_top_lie_coefficient", "rho_field", "apply_field", "pairing"):
        def wrapped(*args, name=name, direct=getattr(pair_module, name)):
            calls.append(name)
            return direct(*args)
        monkeypatch.setattr(pair_module, name, wrapped)
    lie = AlgebroidStructure.lie_derivative
    monkeypatch.setattr(AlgebroidStructure, "lie_derivative",
                        lambda *args: calls.append("lie_derivative") or lie(*args))
    assert pair_module._defect_witness(P) is None
    assert calls == [] and filled == []


class Owner:
    pass


def test_frame_table_fills_each_key_once():
    """The first read of a key calls fill on the owner once and stores its
    value, a second read calls nothing, and a fill that raises stores
    nothing.  The table keeps its owner alive no longer than the owner's
    other references do."""
    calls, owner = [], Owner()

    def fill(of, key):
        assert of is owner
        calls.append(key)
        if key == "bad":
            raise ZeroDivisionError(key)
        return (key, len(calls))

    table = FrameTable(owner, fill)
    assert table == {} and calls == []
    assert table["a"] == ("a", 1) and calls == ["a"]
    assert dict(table) == {"a": ("a", 1)}
    assert table["a"] == ("a", 1) and calls == ["a"]
    with pytest.raises(ZeroDivisionError):
        table["bad"]
    assert calls == ["a", "bad"] and dict(table) == {"a": ("a", 1)}
    assert table.get("b") is None and calls == ["a", "bad"]
    owner.table = table
    gone = weakref.ref(owner)
    del owner
    assert gone() is None


STRUCTURE_TABLES = {"_bracket_cache", "_d_basis_cache", "_d_table", "_schouten_table"}
PAIR_TABLES = {"_dirac_tables", "_dorfman_table", "_defect_table", "_commutator_tables",
               "_laplacian_table", "_modular_lie_table", "_trace_table"}


def test_fresh_pair_and_its_flip_hold_exactly_the_documented_tables(corpus):
    """A freshly built pair, its flip and their four structures hold the
    frame tables FrameTable's docstring lists, and no other.  P, its flip
    and P's two structures each hold FrameTables of their own; the flip's
    structures hold the tables of P's mirror sides, twin.A P.Astar's and
    twin.Astar P.A's.  All are empty, except what P's structures hold
    once the pair is built and flipped:
    * validate_algebroid, in the constructor, fills _schouten_table on
      single frame indices only through its Jacobi sums [[e_i, e_j], e_k]:
      S((i,), (j,)) = [e_i, e_j] and S((i,), (j,), a) = [e_i, x_a] ^ e_j;
    * the modular cocycles, taken by flipped(), fill S((i,), T) = [e_i, e_T]
      and, on their tensoriality probes x_a e_i, S(T, (i,), a), where T is
      the top index (1, ..., n);
    * those fills and the anchor check read the frame brackets [e_i, e_j],
      i < j, into _bracket_cache."""
    for names in (STRUCTURE_TABLES, PAIR_TABLES):
        assert all(name in FrameTable.__doc__ for name in names)
    for label in ("poisson-linear", "exact-so3"):
        P = fresh_pair(dict(corpus)[label])
        twin = P.flipped()
        frame, top = range(1, P.rank + 1), P.frame.top_index
        coords = (None, *range(len(P.coordinates)))
        validated = {"_bracket_cache": {(i, j) for i in frame for j in frame if i < j},
                     "_schouten_table": {((i,), (j,), a) for i in frame for j in frame
                                         for a in coords}
                     | {((i,), top, None) for i in frame}
                     | {(top, (i,), a) for i in frame for a in coords[1:]}}
        seen = set()
        for owner, names in ((P, PAIR_TABLES), (twin, PAIR_TABLES), (P.A, STRUCTURE_TABLES),
                             (P.Astar, STRUCTURE_TABLES)):
            tables = {k: v for k, v in vars(owner).items() if isinstance(v, dict)
                      and k != "brackets"}
            assert tables.keys() == names, (label, type(owner).__name__)
            for name, table in tables.items():
                assert type(table) is FrameTable, (label, name)
                read = set(table) <= validated[name] if name in validated \
                    and owner in (P.A, P.Astar) else not table
                assert read, (label, type(owner).__name__, name)
                assert id(table) not in seen, (label, name)
                seen.add(id(table))
        for mirror, side in ((twin.A, P.Astar), (twin.Astar, P.A)):
            tables = {k: v for k, v in vars(mirror).items() if isinstance(v, dict)
                      and k != "brackets"}
            assert tables.keys() == STRUCTURE_TABLES, (label, mirror.section_kind)
            for name, table in tables.items():
                assert table is getattr(side, name), (label, mirror.section_kind, name)


def test_a_dropped_pair_is_freed_with_its_tables(corpus):
    """A pair, its structures and, once it is flipped and decided, its flip
    and the flip's structures are freed as soon as the last reference to
    the pair goes, filled tables and all: no table forms a reference cycle
    with its owner, and the flip holds the pair by a weak reference, so
    none waits for the cycle collector."""
    P = fresh_pair(dict(corpus)["poisson-linear"])
    x, y = SectionE.of(vec=P.basis_e(1)), SectionE.of(cov=P.basis_eps(1))
    dirac_apply(P, P.basis_e(1).scaled(Polynomial.variable(P.coordinates, P.coordinates[0])))
    pair_module._anchor_defect_field(P, x, y)
    pair_module._odd_commutator(P, y, P.basis_e(1))
    laplacian(P, P.basis_e(1))
    pair_module._half_modular_lie(P, P.basis_e(1))
    pair_module._trace_residual(P, P.basis_e(1), P.basis_eps(1))
    assert all(getattr(P, name) for name in PAIR_TABLES) and P.Astar._d_table
    refs = [weakref.ref(owner) for owner in (P, P.A, P.Astar)]
    gc.disable()
    try:
        del P
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()
    P = fresh_pair(dict(corpus)["poisson-linear"])
    for suite in SUITES:
        suite(P)
    twin = P.flipped()
    assert twin.flipped() is P
    assert all(getattr(twin, name) for name in PAIR_TABLES - {"_commutator_tables"})
    assert P.A._schouten_table and P.Astar._schouten_table
    refs = [weakref.ref(owner) for owner in (P, P.A, P.Astar, twin, twin.A, twin.Astar)]
    del twin
    gc.disable()
    try:
        del P
        assert [ref() for ref in refs] == [None] * 6
    finally:
        gc.enable()


def test_a_flip_whose_pair_is_gone_builds_a_fresh_flip(corpus):
    """A flip holds its pair weakly: once the pair is dropped, the flip's
    flip is a new pair with the original's data, reports and frame, which
    the flip then keeps, and whose own flip is the flip again."""
    P = fresh_pair(dict(corpus)["poisson-linear"])
    expected = [_printed(suite, P) for suite in (is_lie_bialgebroid, dirac_square)]
    twin = P.flipped()
    gone = weakref.ref(P)
    del P
    assert gone() is None
    again = twin.flipped()
    assert again is twin.flipped() and again.flipped() is twin
    assert again.frame is twin.frame and again.A.section_kind == "vector"
    assert (again.A.anchor, again.A.brackets) == (twin.Astar.anchor, twin.Astar.brackets)
    assert again.A._schouten_table is twin.Astar._schouten_table
    assert [_printed(suite, again) for suite in (is_lie_bialgebroid, dirac_square)] == expected


def test_a_flipped_structure_outlives_its_pair(corpus):
    """A structure of P.flipped() holds the tables of P's mirror side, whose
    owner is P's structure.  It keeps that owner alive, so after P and its
    flip are dropped and collected it still fills new keys, with the values
    a freshly built structure computes."""
    P = fresh_pair(dict(corpus)["poisson-linear"])
    twin = P.flipped()
    sides = [(twin.A, Form), (twin.Astar, Multivector)]
    del P, twin
    gc.collect()
    for side, dual in sides:
        fresh = AlgebroidStructure(side.rank, side.coordinates, side.anchor, side.brackets,
                                   side.section_kind)
        x1 = Polynomial.variable(side.coordinates, side.coordinates[0])
        for w in (dual.basis(side.rank, side.coordinates, 1),
                  dual.monomial(side.rank, side.coordinates, (1, 2), x1)):
            assert not any(key[0] in w.terms for key in side._d_table)
            assert side.differential(w) == fresh.differential(w), side.section_kind
        assert side._d_table

SUITES =[dirac_square, dirac_star_square, is_lie_bialgebroid, theorem_c_suite,
          corollary_suite, courant_axioms, generator_check]


def test_suites_store_nothing_on_the_pair(corpus):
    """No suite leaves anything on P, on its two structures or on its flip
    (the modular cocycles and the flip are P's own caches, taken first).
    The structures' tables and the pair's D, Dorfman, defect, commutator,
    Laplacian and modular Lie tables, created with their owner and filled
    in place, hold values of immutable data only."""
    P = dict(corpus)["poisson-linear"]
    twin = P.flipped()
    owners = (P, P.A, P.Astar, twin, twin.A, twin.Astar)
    before = [dict(vars(owner)) for owner in owners]
    for suite in SUITES:
        suite(P)
        for owner, old in zip(owners, before):
            new = vars(owner)
            assert new.keys() == old.keys(), suite.__name__
            assert all(new[k] is old[k] for k in old), suite.__name__
        assert "dstar" not in vars(P) and "boundary" not in vars(P)


def test_differential_applies_no_vector_field(monkeypatch):
    """The differential reads d x_a ^ eps^J and d eps^J, and the Schouten
    bracket [e_I, x_a] ^ e_J and [e_I, e_J], off the structure's frame
    tables: one dirac_square on the quadratic double at m = 3
    differentiates no polynomial, though the modular cocycles, taken first,
    do (the divergences of the anchor fields)."""
    P = quadratic_double(3)
    calls, direct = [], Polynomial.diff

    def counting(*args):
        calls.append(args)
        return direct(*args)

    monkeypatch.setattr(Polynomial, "diff", counting)
    P.flipped().modular, P.modular
    assert calls
    calls.clear()
    assert dirac_square(P).is_scalar
    assert calls == []


COLD_BUILDERS = [lambda: quadratic_double(3), log_canonical_double, tangent_against_solvable,
                 tangent_against_tangent, lambda: find_counterexample_pairs(1)[0]]


def _printed(suite, P):
    """suite(P) as JSON, or the message of its PreconditionError refusal."""
    try:
        return json.dumps(suite(P).to_json())
    except PreconditionError as refusal:
        return f"refused: {refusal}"


@pytest.mark.parametrize("build", COLD_BUILDERS)
def test_cold_and_warm_frame_tables_give_the_same_reports(build):
    """A freshly built pair (empty frame tables, D table, Dorfman table,
    defect table, commutator tables, Laplacian table, modular Lie table and
    trace table) and one whose tables the same decisions have filled print
    byte-identical reports, or refuse with the same PreconditionError
    message.  P.flipped() keeps each of the pair's tables of its own."""
    suites = (dirac_square, dirac_star_square, generator_check, courant_axioms,
              theorem_c_suite, corollary_suite, is_lie_bialgebroid)
    warm = build()
    for suite in suites:
        _printed(suite, warm)
    assert any(side._d_table for side in (warm.A, warm.Astar))
    for name in PAIR_TABLES - {"_commutator_tables"}:
        assert getattr(warm, name) and getattr(warm.flipped(), name), name
    assert warm._commutator_tables
    for suite in suites:
        cold = fresh_pair(warm)
        assert not any(side._d_table for side in (cold.A, cold.Astar))
        for name in PAIR_TABLES:
            assert getattr(cold, name) == {} and getattr(cold.flipped(), name) == {}, name
        assert _printed(suite, cold) == _printed(suite, warm), suite.__name__
    P = fresh_pair(warm)
    dirac_apply(P, P.basis_e(1).scaled(Polynomial.const(P.coordinates, 3)))
    pair_module._anchor_defect_field(P, SectionE.of(vec=P.basis_e(1)),
                                     SectionE.of(cov=P.basis_eps(1)))
    pair_module._odd_commutator(P, SectionE.of(cov=P.basis_eps(1)), P.basis_e(1))
    laplacian(P, P.basis_e(1))
    pair_module._half_modular_lie(P, P.basis_e(1))
    pair_module._trace_residual(P, P.basis_e(1), P.basis_eps(1))
    assert all(getattr(P, name) for name in PAIR_TABLES)
    twin = P.flipped()
    for name in PAIR_TABLES:
        assert getattr(twin, name) is not getattr(P, name) and getattr(twin, name) == {}, name


@pytest.mark.parametrize("build", COLD_BUILDERS)
def test_schouten_reading_suites_are_the_same_cold_and_warm_on_both_sides(build):
    """is_lie_bialgebroid, theorem_c_suite and corollary_suite, which take
    the Schouten bracket of generator pairs, print byte-identical reports
    (or refusals) on a freshly built pair and on one whose structure
    tables, the Schouten table included, the same suites have filled, on P
    and on P.flipped(), whose sides read P's tables.  A fresh pair's
    Schouten tables hold only what its constructor's validation fills."""
    suites = (is_lie_bialgebroid, theorem_c_suite, corollary_suite)
    warm = build()
    for Q in (warm, warm.flipped()):
        for suite in suites:
            _printed(suite, Q)
    assert all(side._schouten_table for side in (warm.A, warm.Astar))
    for suite in suites:
        for flip in (False, True):
            cold = fresh_pair(warm)
            assert all(len(c._schouten_table) < len(w._schouten_table)
                       for c, w in ((cold.A, warm.A), (cold.Astar, warm.Astar)))
            on_cold, on_warm = (cold.flipped(), warm.flipped()) if flip else (cold, warm)
            assert _printed(suite, on_cold) == _printed(suite, on_warm), (suite.__name__, flip)


def test_no_structure_key_is_filled_twice_across_a_pair_and_its_flip(monkeypatch):
    """The seven suites on a freshly built quadratic_double(4) fill each key
    of each side's structure tables (the Schouten table included) once
    across P and P.flipped(), whose structures hold the tables of P's
    mirror sides, and print the same reports as on a pair built without
    counting."""
    plain = quadratic_double(4)
    expected = [_printed(suite, plain) for suite in SUITES]
    fills, fill_names = [], ("_d_entry", "_bracket_entry", "_d_basis", "_schouten_entry")
    for name in fill_names:
        def counted(side, key, name=name, direct=getattr(AlgebroidStructure, name)):
            fills.append((side, name, key))
            return direct(side, key)
        monkeypatch.setattr(AlgebroidStructure, name, counted)
    base = quadratic_double(4)
    fills.clear()
    P = fresh_pair(base)
    assert [_printed(suite, P) for suite in SUITES] == expected
    data = {id(P.A): "A", id(P.Astar): "A*"}
    keys = [(data[id(side)], name, key) for side, name, key in fills]
    assert len(keys) == len(set(keys))
    assert {(side, name) for side, name, _key in keys} == \
        {(side, name) for side in ("A", "A*") for name in fill_names}
