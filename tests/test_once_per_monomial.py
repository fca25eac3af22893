"""exterior.once_per_monomial: exact against the direct operators, and
scoped to one decision call."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bialgebroid import (Form, Multivector, Polynomial, corollary_suite,
                         courant_axioms, dirac_apply, dirac_square,
                         dirac_star_apply, dirac_star_square, generator_check,
                         is_lie_bialgebroid, laplacian, theorem_c_suite)
from bialgebroid import pair as pair_module
from bialgebroid.exterior import once_per_monomial


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


def test_generator_check_applies_D_once_per_monomial(corpus, monkeypatch):
    P = dict(corpus)["poisson-linear"]
    seen = []
    direct = pair_module.dirac_apply

    def counting(pair, u):
        seen.append(u)
        return direct(pair, u)

    monkeypatch.setattr(pair_module, "dirac_apply", counting)
    first = generator_check(P).to_json()
    calls = len(seen)
    assert all(_is_probe_monomial(u) for u in seen)
    assert len({_key(u) for u in seen}) == calls
    # nothing is kept between calls: the same work again, and the same answer
    seen.clear()
    assert generator_check(P).to_json() == first
    assert len(seen) == calls


SUITES = [dirac_square, dirac_star_square, is_lie_bialgebroid, theorem_c_suite,
          corollary_suite, courant_axioms, generator_check]


def test_suites_store_nothing_on_the_pair(corpus):
    P = dict(corpus)["poisson-linear"]
    P.flipped()  # computes and keeps the modular cocycles and the flipped pair
    twin = P.flipped()
    before = dict(vars(P)), dict(vars(twin))
    for suite in SUITES:
        suite(P)
        after = dict(vars(P)), dict(vars(twin))
        for old, new in zip(before, after):
            assert new.keys() == old.keys(), suite.__name__
            assert all(new[k] is old[k] for k in old), suite.__name__
