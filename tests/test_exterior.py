import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bialgebroid import (ExteriorError, Form, FrameData, Multivector, Polynomial,
                         interior_by_form, interior_by_multivector,
                         inverse_omega_sharp, inverse_v_sharp, omega_sharp,
                         pairing, v_sharp)
from bialgebroid import exterior

from conftest import of_degree

XY = ("x", "y")


def mv(rank, terms, coords=XY):
    return Multivector(rank, coords, {k: Polynomial.parse(v, coords) for k, v in terms.items()})


def form(rank, terms, coords=XY):
    return Form(rank, coords, {k: Polynomial.parse(v, coords) for k, v in terms.items()})


def test_wedge_on_frame_elements():
    e1 = Multivector.basis(3, XY, 1)
    e2 = Multivector.basis(3, XY, 2)
    e3 = Multivector.basis(3, XY, 3)
    assert e1.wedge(e2) == Multivector.monomial(3, XY, (1, 2), Polynomial.const(XY, 1))
    assert e2.wedge(e1) == -e1.wedge(e2)
    assert e1.wedge(e1).is_zero()
    assert e2.wedge(e1.wedge(e3)) == -Multivector.monomial(3, XY, (1, 2, 3), Polynomial.const(XY, 1))


def _parity(word, order):
    """(-1)^(len - cycles) of the permutation taking order to word."""
    perm = [order.index(w) for w in word]
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return -1 if (len(perm) - cycles) & 1 else 1


SUBSETS5 = [ix for k in range(6) for ix in itertools.combinations(range(1, 6), k)]


def test_sign_rules_match_permutation_parity():
    """e_L ^ e_R = sgn e_sorted(L + R), and contracting the factors of D
    into T first slot first leaves sgn eps_rest, where T reads as D then
    the rest by a permutation of sign sgn; every pair of index tuples up
    to rank 5."""
    for left, right in itertools.product(SUBSETS5, repeat=2):
        merged = tuple(sorted(left + right))
        want = None if set(left) & set(right) else (_parity(left + right, merged), merged)
        assert exterior._merge_sign(left, right) == want, (left, right)
        rest = tuple(i for i in right if i not in left)
        want = None if not set(left) <= set(right) else (_parity(left + rest, right), rest)
        assert exterior._contract_sign(left, right) == want, (left, right)
    for rule in (exterior._merge_sign, exterior._contract_sign):
        assert rule.cache_info().maxsize is not None


def test_str_format():
    u = mv(3, {(1, 3): "x^2", (2,): "-1/2"})
    assert str(u) == "(-1/2)*e[2] + (x^2)*e[1,3]"
    assert str(Form.zero(2, XY)) == "0"
    assert str(form(2, {(1, 2): "1"})) == "eps[1,2]"


def rank_and_indices(max_rank=4):
    return st.integers(min_value=1, max_value=max_rank).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.sets(st.integers(min_value=1, max_value=n), max_size=n).map(
                        lambda s: tuple(sorted(s))),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4)),
                max_size=4)))


def build_mv(n, entries):
    out = Multivector.zero(n, XY)
    for index, coeff in entries:
        out = out + Multivector.monomial(n, XY, index, Polynomial.const(XY, coeff))
    return out


@given(rank_and_indices(), rank_and_indices())
def test_wedge_graded_commutativity(a, b):
    n = max(a[0], b[0])
    u = build_mv(n, a[1])
    v = build_mv(n, b[1])
    for ku in u.degrees():
        for kv in v.degrees():
            uh, vh = of_degree(u, ku), of_degree(v, kv)
            sign = -1 if (ku * kv) % 2 else 1
            assert uh.wedge(vh) == vh.wedge(uh).scaled(sign)


@given(rank_and_indices(), rank_and_indices(), rank_and_indices())
def test_wedge_associativity(a, b, c):
    n = max(a[0], b[0], c[0])
    u, v, w = build_mv(n, a[1]), build_mv(n, b[1]), build_mv(n, c[1])
    assert u.wedge(v.wedge(w)) == u.wedge(v).wedge(w)


def test_interior_first_slot_convention():
    # iota_{eps1} drops the first index with alternating signs in later slots
    u = Multivector.monomial(3, XY, (1, 2, 3), Polynomial.const(XY, 1))
    eps1 = Form.basis(3, XY, 1)
    eps2 = Form.basis(3, XY, 2)
    assert interior_by_form(eps1, u) == mv(3, {(2, 3): "1"})
    assert interior_by_form(eps2, u) == mv(3, {(1, 3): "-1"})


def test_interior_composition_order():
    # iota_{alpha ^ beta} = iota_beta o iota_alpha
    u = Multivector.monomial(3, XY, (1, 2, 3), Polynomial.const(XY, 1))
    alpha = form(3, {(1,): "x"})
    beta = form(3, {(3,): "y"})
    combined = interior_by_form(alpha.wedge(beta), u)
    assert combined == interior_by_form(beta, interior_by_form(alpha, u))
    assert combined == mv(3, {(2,): "-x*y"})


def test_interior_is_an_antiderivation():
    theta = Form.basis(3, XY, 2)
    u = mv(3, {(2,): "x"})
    v = mv(3, {(1, 3): "y"})
    lhs = interior_by_form(theta, u.wedge(v))
    rhs = interior_by_form(theta, u).wedge(v) - u.wedge(interior_by_form(theta, v))
    assert lhs == rhs


PAIRING_RANKS = [1, 2, 3, 4]


@pytest.mark.parametrize("n", PAIRING_RANKS)
def test_pairing_is_kronecker_on_frames(n):
    for k in range(n + 1):
        for I in itertools.combinations(range(1, n + 1), k):
            for J in itertools.combinations(range(1, n + 1), k):
                theta = Form.monomial(n, XY, J, Polynomial.const(XY, 1))
                u = Multivector.monomial(n, XY, I, Polynomial.const(XY, 1))
                expected = Polynomial.const(XY, 1 if I == J else 0)
                assert pairing(theta, u) == expected


def test_pairing_determinant_convention():
    # <th1 ^ th2, u1 ^ u2> = <th1,u1><th2,u2> - <th1,u2><th2,u1>
    th1 = form(2, {(1,): "x", (2,): "2"})
    th2 = form(2, {(1,): "-1", (2,): "y"})
    u1 = mv(2, {(1,): "y", (2,): "1"})
    u2 = mv(2, {(1,): "3", (2,): "x"})
    lhs = pairing(th1.wedge(th2), u1.wedge(u2))
    det = (pairing(th1, u1) * pairing(th2, u2)
           - pairing(th1, u2) * pairing(th2, u1))
    assert lhs == det


@pytest.mark.parametrize("n", PAIRING_RANKS)
def test_sharp_round_trip_signs(n):
    frame = FrameData(n, XY)
    for k in range(n + 1):
        for I in itertools.combinations(range(1, n + 1), k):
            u = Multivector.monomial(n, XY, I, Polynomial.parse("x", XY))
            sign = -1 if (k * (n - 1)) % 2 else 1
            assert v_sharp(frame, omega_sharp(frame, u)) == u.scaled(sign)
            theta = Form.monomial(n, XY, I, Polynomial.parse("y", XY))
            assert omega_sharp(frame, v_sharp(frame, theta)) == theta.scaled(sign)


@pytest.mark.parametrize("n", PAIRING_RANKS)
def test_inverse_sharps(n):
    frame = FrameData(n, XY)
    for k in range(n + 1):
        for I in itertools.combinations(range(1, n + 1), k):
            u = Multivector.monomial(n, XY, I, Polynomial.parse("x^2", XY))
            assert inverse_omega_sharp(frame, omega_sharp(frame, u)) == u
            theta = Form.monomial(n, XY, I, Polynomial.parse("y", XY))
            assert inverse_v_sharp(frame, v_sharp(frame, theta)) == theta


def test_top_pairing_is_one():
    frame = FrameData(3, XY)
    assert pairing(frame.omega, frame.vee) == Polynomial.const(XY, 1)


def test_frame_density_must_be_nonzero_constant():
    with pytest.raises(ExteriorError):
        FrameData(2, XY, Polynomial.zero(XY))
    with pytest.raises(ExteriorError):
        FrameData(2, XY, Polynomial.parse("x", XY))
    frame = FrameData(2, XY, Polynomial.const(XY, Fraction(3, 2)))
    assert frame.s_density.constant_value() == Fraction(3, 2)


def test_index_validation():
    with pytest.raises(ExteriorError):
        Multivector(2, XY, {(2, 1): Polynomial.const(XY, 1)})
    with pytest.raises(ExteriorError):
        Multivector(2, XY, {(0,): Polynomial.const(XY, 1)})
    with pytest.raises(ExteriorError):
        Form(2, XY, {(3,): Polynomial.const(XY, 1)})


def test_mixed_type_operations_rejected():
    u = Multivector.basis(2, XY, 1)
    theta = Form.basis(2, XY, 1)
    with pytest.raises(ExteriorError):
        u + theta
    with pytest.raises(ExteriorError):
        u.wedge(theta)
    with pytest.raises(ExteriorError):
        interior_by_form(theta, Form.basis(2, XY, 2))


def test_coefficient_and_degrees():
    u = mv(3, {(1, 2): "x", (3,): "1"})
    assert u.degrees() == [1, 2]
    assert u.max_degree() == 2
    assert u.coefficient((1, 2)) == Polynomial.parse("x", XY)
    assert u.coefficient((1, 3)).is_zero()
