"""exterior.once_per_monomial, the top-form Lie derivatives x -> L_x Omega of
the thm-c trace taken once per monomial through it, and the Dorfman bracket
taken once per pair of section monomials: exact against the direct
operators, and scoped to one decision call, in which the once-per-monomial
view takes each differential image once."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bialgebroid import (AlgebroidStructure, BialgebroidPair, Form, Multivector, Polynomial,
                         SectionE, coordinate_monomials, corollary_suite, courant_axioms,
                         dirac_apply, dirac_square, dirac_star_apply, dirac_star_square, dorfman,
                         find_counterexample_pairs, generator_check, is_lie_bialgebroid,
                         laplacian, theorem_c_suite)
from bialgebroid import algebroid as algebroid_module
from bialgebroid import pair as pair_module
from bialgebroid.exterior import interior_by_form, once_per_monomial, retype

from conftest import (log_canonical_double, quadratic_double, tangent_against_solvable,
                      tangent_against_tangent)


@pytest.fixture(scope="session")
def all_pairs(corpus, failing_pairs):
    return [P for _label, P in corpus] + list(failing_pairs)


def operators(P):
    """(name, input class, operator) for every operator a decision call wraps."""
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
def elements(draw, cls, rank, coords):
    """Mixed-degree elements with rational coefficients of degree <= 3; may be zero."""
    subsets = [tuple(i for i in range(1, rank + 1) if mask >> (i - 1) & 1)
               for mask in range(2 ** rank)]
    exps = st.tuples(*[st.integers(0, 2) for _ in coords]).filter(lambda e: sum(e) <= 3)
    poly = st.dictionaries(exps, rationals, max_size=3).map(lambda t: Polynomial(coords, t))
    terms = draw(st.dictionaries(st.sampled_from(subsets), poly, max_size=4))
    return cls(rank, coords, terms)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_memoized_operators_equal_the_direct_ones(all_pairs, data):
    P = data.draw(st.sampled_from(all_pairs))
    name, cls, op = data.draw(st.sampled_from(operators(P)))
    inputs = data.draw(st.lists(elements(cls, P.rank, P.coordinates), min_size=1, max_size=4))
    memo = once_per_monomial(op)
    # the later inputs reuse the images stored for the earlier ones
    for x in inputs + [inputs[0] + inputs[-1], inputs[0].scaled(Fraction(-3, 2))]:
        got, want = memo(x), op(x)
        assert type(got) is type(want), name
        assert got == want, (name, str(x))


def test_zero_and_kernel_elements(all_pairs):
    """Zero, constants (killed by dstar, d and both Laplacians) and images of
    the differentials (killed by the differential again)."""
    for P in all_pairs:
        one = Polynomial.const(P.coordinates, Fraction(-7, 3))
        u = Multivector(P.rank, P.coordinates,
                        {(1,): one, (1, 2): one, (): one})
        theta = Form(P.rank, P.coordinates, {(1,): one, (2,): one})
        kernel = {"dstar": [P.scalar_mv(one), P.dstar(u)],
                  "d": [P.scalar_form(one), P.d(theta)],
                  "Lap": [P.scalar_mv(one)], "Lap*": [P.scalar_form(one)]}
        for name, cls, op in operators(P):
            memo = once_per_monomial(op)
            zero = cls.zero(P.rank, P.coordinates)
            for x in [zero] + kernel.get(name, []):
                got, want = memo(x), op(x)
                assert type(got) is type(want) and got == want, (P.label, name, str(x))
                if name in kernel:
                    assert got.is_zero(), (P.label, name, str(x))


def _is_probe_monomial(u):
    """Zero, or one term x^gamma e_I with coefficient 1."""
    if not u.terms:
        return True
    (poly,) = u.terms.values()
    return len(poly.terms) == 1 and list(poly.terms.values()) == [1]


def _key(u):
    return tuple(sorted((ix, tuple(p.terms)) for ix, p in u.terms.items()))


def direct_dirac(P, u):
    """D u by the formula dstar - boundary + 1/2 (X_0 ^ . + iota_{xi_0}),
    with no table."""
    mod, half = P.modular, Fraction(1, 2)
    return P.dstar(u) - P.boundary(u) \
        + mod.x0.wedge(u).scaled(half) + interior_by_form(mod.xi0, u).scaled(half)


@pytest.fixture(scope="module")
def dirac_pairs(corpus, failing_pairs, pn_failing_pairs):
    pairs = [P for _label, P in corpus] + list(failing_pairs) + list(pn_failing_pairs) \
        + [log_canonical_double()]
    assert any(not P.coordinates for P in pairs) and any(P.coordinates for P in pairs)
    return pairs


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dirac_table_matches_the_direct_formula(dirac_pairs, data):
    """dirac_apply reads D term by term off the pair's D table; on every
    pair, over a point and over a base, it gives the formula's value, and
    so does dirac_star_apply, which reads the table of P.flipped()."""
    P = data.draw(st.sampled_from(dirac_pairs))
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


@st.composite
def degree1(draw, cls, rank, coords):
    """Degree-1 elements: rational combinations of x^gamma e_i (or x^gamma
    eps^j) with |gamma| <= 3; may be zero."""
    exps = st.tuples(*[st.integers(0, 2) for _ in coords]).filter(lambda e: sum(e) <= 3)
    poly = st.dictionaries(exps, rationals, max_size=3).map(lambda t: Polynomial(coords, t))
    slots = st.sampled_from([(i,) for i in range(1, rank + 1)])
    return cls(rank, coords, draw(st.dictionaries(slots, poly, max_size=rank)))


@st.composite
def sections(draw, rank, coords):
    """Sections of the double; either part (or both) may be zero."""
    return SectionE(draw(degree1(Multivector, rank, coords)), draw(degree1(Form, rank, coords)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bracket_once_per_monomial_pair_equals_dorfman(all_pairs, data):
    P = data.draw(st.sampled_from(all_pairs))
    xs = data.draw(st.lists(sections(P.rank, P.coordinates), min_size=1, max_size=3))
    bracket = pair_module._once_per_monomial_dorfman(P)
    # every ordered pair, so later brackets reuse the images of earlier ones
    for x in xs + [xs[0] + xs[-1], xs[0].scaled(Fraction(-3, 2))]:
        for y in xs + [SectionE.zero(P.rank, P.coordinates)]:
            for a, b in ((x, y), (y, x)):
                assert bracket(a, b) == dorfman(P, a, b), (P.label, str(a), str(b))


def test_bracket_on_monomial_sections_and_zero(all_pairs):
    """Every ordered pair of sections x^gamma e_i, x^gamma eps^j (|gamma| <= 1),
    of their sum and of zero, through one wrapper: images stored for one
    exponent must not stand in for another."""
    for P in all_pairs:
        units = [SectionE.of(vec=P.basis_e(i).scaled(f)) for i in range(1, P.rank + 1)
                 for f in coordinate_monomials(P.coordinates, 1)]
        units += [SectionE.of(cov=P.basis_eps(i).scaled(f)) for i in range(1, P.rank + 1)
                  for f in coordinate_monomials(P.coordinates, 1)]
        total = units[0]
        for e in units[1:]:
            total = total + e
        inputs = units + [total, SectionE.zero(P.rank, P.coordinates)]
        bracket = pair_module._once_per_monomial_dorfman(P)
        for a in inputs:
            for b in inputs:
                assert bracket(a, b) == dorfman(P, a, b), (P.label, str(a), str(b))


def _section_key(e):
    return (_key(e.vec), _key(e.cov))


def test_courant_axioms_bracket_once_per_monomial_pair(corpus, monkeypatch):
    P = dict(corpus)["exact-so3"]
    assert P.rank == 3 and P.coordinates == ()
    seen = []
    direct = pair_module.dorfman

    def counting(pair, e1, e2):
        seen.append((e1, e2))
        return direct(pair, e1, e2)

    monkeypatch.setattr(pair_module, "dorfman", counting)
    first = courant_axioms(P).to_json()
    calls = len(seen)
    for e1, e2 in seen:
        for e in (e1, e2):
            parts = [part for part in (e.vec, e.cov) if not part.is_zero()]
            assert len(parts) == 1 and _is_probe_monomial(parts[0]), str(e)
    assert len({(_section_key(e1), _section_key(e2)) for e1, e2 in seen}) == calls
    assert 0 < calls <= (2 * P.rank) ** 2
    # nothing is kept between calls: the same work again, and the same answer
    seen.clear()
    assert courant_axioms(P).to_json() == first
    assert len(seen) == calls


def lie_direct(P, x, t):
    return (P.A if isinstance(x, Multivector) else P.Astar).lie_derivative(x, t)


def top_coefficient_direct(P, x):
    """The coefficient on Omega of L_x Omega, with no wrapper."""
    return lie_direct(P, x, P.frame.omega).coefficient(P.frame.top_index)


def test_top_lie_coefficient_on_monomials_and_zero(all_pairs):
    """Every x^gamma e_i and x^gamma eps^j (|gamma| <= 1), the sum of each kind
    and zero, through one wrapper, on P and on its flip: Lie derivatives of
    the top form along either side, so the images turn Multivectors into
    Forms.  Images stored for one exponent or class must not stand in for
    another, and zero gives 0 without a stored image."""
    for P in all_pairs:
        monos = coordinate_monomials(P.coordinates, 1)
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
    # later inputs reuse the images stored for earlier ones
    for x in xs + [xs[0].scaled(Fraction(-3, 2)), xs[0] + xs[0].scaled(Fraction(1, 3))]:
        assert a(x) == top_coefficient_direct(P, x), (P.label, str(x))


def test_defect_witness_takes_top_lie_once_per_monomial(corpus, monkeypatch):
    P = dict(corpus)["poisson-linear"]
    seen = []

    def counting_wrapper(op, wrap=pair_module.once_per_monomial):
        def counting(x):
            seen.append(x)
            return op(x)
        return wrap(counting)

    monkeypatch.setattr(pair_module, "once_per_monomial", counting_wrapper)
    before = dict(vars(P))
    first = pair_module._defect_witness(P)
    calls = len(seen)
    assert calls > 0
    for x in seen:
        assert not x.is_zero() and _is_probe_monomial(x), str(x)
    assert len({(type(x), _key(x)) for x in seen}) == calls
    # nothing is kept between calls, on the pair or elsewhere
    seen.clear()
    assert pair_module._defect_witness(P) == first
    assert len(seen) == calls
    assert vars(P).keys() == before.keys()
    assert all(vars(P)[k] is v for k, v in before.items())


SUITES = [dirac_square, dirac_star_square, is_lie_bialgebroid, theorem_c_suite,
          corollary_suite, courant_axioms, generator_check]


def test_suites_store_nothing_on_the_pair(corpus):
    """No suite leaves anything on P, on its two structures or on its flip
    (the modular cocycles and the flip are P's own caches, taken first).
    The structures' tables and the pair's D table, filled in place, hold
    values of immutable data only."""
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


def _terms_key(w):
    """The indices and exact coefficients of an element, whatever its class."""
    return tuple(sorted((ix, tuple(sorted(p.terms.items()))) for ix, p in w.terms.items()))


def _data_key(side):
    """The anchor and bracket data of an algebroid, whichever side it is on."""
    return (tuple(tuple(map(str, row)) for row in side.anchor),
            tuple(sorted((key, tuple(map(str, comps))) for key, comps in side.brackets.items())))


def test_every_decision_takes_one_differential_per_monomial(corpus, monkeypatch):
    """Each decision takes the differential once per distinct (algebroid
    data, input): d and dstar run once per monomial on one view for the
    whole call, the boundaries are d conjugated by the top contraction and
    read the same images, and so does every operator built on them (D,
    the Laplacians, the Lie derivatives, the Dorfman bracket).  The view's
    mirror carries the same two algebroids on the other sides and reads the
    view's images through retype, so the key is the algebroid's data and
    the input's terms, not the structure object or the input's class."""
    P = dict(corpus)["poisson-linear"]
    P.flipped()
    seen = []
    direct = AlgebroidStructure.differential

    def counting(side, w):
        seen.append((_data_key(side), _terms_key(w)))
        return direct(side, w)

    monkeypatch.setattr(AlgebroidStructure, "differential", counting)
    for suite in SUITES:
        seen.clear()
        suite(P)
        assert seen, suite.__name__
        assert len(set(seen)) == len(seen), (suite.__name__, len(seen), len(set(seen)))


def test_differential_applies_no_vector_field(monkeypatch):
    """The differential reads d x_a ^ eps^J and d eps^J off the structure's
    frame tables: one dirac_square on the quadratic double at m = 3 applies
    no vector field inside a differential, though the Schouten brackets of
    its Lie derivatives along A* still do."""
    P = quadratic_double(3)
    P.flipped().modular, P.modular
    depth, inside, outside = [0], [], []
    direct, field = AlgebroidStructure.differential, algebroid_module.apply_field

    def differential(side, w):
        depth[0] += 1
        try:
            return direct(side, w)
        finally:
            depth[0] -= 1

    def counting(*args):
        (inside if depth[0] else outside).append(args)
        return field(*args)

    monkeypatch.setattr(AlgebroidStructure, "differential", differential)
    monkeypatch.setattr(algebroid_module, "apply_field", counting)
    assert dirac_square(P).is_scalar
    assert inside == [] and outside


COLD_BUILDERS = [lambda: quadratic_double(3), log_canonical_double, tangent_against_solvable,
                 tangent_against_tangent, lambda: find_counterexample_pairs(1)[0]]


def _fresh(P):
    """P with both structures built again from their data: empty tables."""
    return BialgebroidPair(*(AlgebroidStructure(side.rank, side.coordinates, side.anchor,
                                                side.brackets, side.section_kind)
                             for side in (P.A, P.Astar)), P.frame, P.label)


@pytest.mark.parametrize("build", COLD_BUILDERS)
def test_cold_and_warm_frame_tables_give_the_same_reports(build):
    """A freshly built pair (empty frame tables and D table) and one whose
    tables the same decisions have filled print byte-identical reports.
    A call on the once-per-monomial view fills P's D table, and P.flipped()
    keeps a D table of its own."""
    suites = (dirac_square, dirac_star_square, generator_check)
    warm = build()
    for suite in suites:
        suite(warm)
    assert any(side._d_unit_cache for side in (warm.A, warm.Astar))
    assert warm._dirac_tables and warm.flipped()._dirac_tables
    for suite in suites:
        cold = _fresh(warm)
        assert not any(side._d_unit_cache or side._dx_wedge_cache for side in (cold.A, cold.Astar))
        assert cold._dirac_tables == {}
        assert json.dumps(suite(cold).to_json()) == json.dumps(suite(warm).to_json())
    P = _fresh(warm)
    view = pair_module._once_per_monomial_view(P)
    assert view._dirac_tables is P._dirac_tables
    dirac_apply(view, P.basis_e(1).scaled(Polynomial.const(P.coordinates, 3)))
    assert P._dirac_tables
    twin = P.flipped()
    assert twin._dirac_tables is not P._dirac_tables and twin._dirac_tables == {}
    assert view.flipped()._dirac_tables is twin._dirac_tables
