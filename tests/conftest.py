"""Shared structures: a corpus of known-good pairs plus incompatible ones."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from bialgebroid import (AlgebroidStructure, BialgebroidPair, BivectorData,
                         Multivector, PoissonManifoldData, Polynomial, a_plus_b,
                         exact_from_bivector, find_counterexample_pairs,
                         pair_from_json, poisson_double, tangent_algebroid)

FIXTURES = Path(__file__).parent / "fixtures"


def const(value, coords=()):
    return Polynomial.const(coords, value)


def point_algebra(rank, brackets, kind="vector"):
    """Structure over a zero-dimensional base from integer bracket data."""
    coords = ()
    table = {}
    for key, entry in brackets.items():
        table[key] = tuple(const(v) for v in entry)
    return AlgebroidStructure(rank, coords, [[] for _ in range(rank)], table, kind)


def of_degree(element, k):
    """The degree-k part of a Multivector or Form."""
    return type(element)(element.rank, element.variables,
                         {ix: p for ix, p in element.terms.items() if len(ix) == k})


def heisenberg():
    return point_algebra(3, {(1, 2): (0, 0, 1)})


def so3():
    return point_algebra(3, {(1, 2): (0, 0, 1), (1, 3): (0, -1, 0), (2, 3): (1, 0, 0)})


def solvable():
    return point_algebra(3, {(1, 2): (0, 1, 0), (1, 3): (0, 0, 1)})


def heisenberg_triangular_pair():
    alg = heisenberg()
    L = BivectorData(Multivector.monomial(3, (), (1, 3), const(1)))
    return exact_from_bivector(alg, L)


def heisenberg_exact_pair():
    alg = heisenberg()
    L = BivectorData(Multivector.monomial(3, (), (1, 2), const(1)))
    return exact_from_bivector(alg, L)


def so3_exact_pair():
    alg = so3()
    L = BivectorData(Multivector.monomial(3, (), (1, 2), const(1)))
    return exact_from_bivector(alg, L)


def poisson_data(kind):
    if kind == "zero":
        return PoissonManifoldData(2, [["0", "0"], ["0", "0"]])
    if kind == "constant":
        return PoissonManifoldData(2, [["0", "1"], ["-1", "0"]])
    if kind == "linear":
        return PoissonManifoldData(2, [["0", "x1"], ["-x1", "0"]])
    raise KeyError(kind)


def tangent_against_solvable():
    """TR^2 against [eps1, eps2] = eps2 with zero anchor: a pair over a base
    of positive dimension that is not a bialgebroid."""
    coords = ("x1", "x2")
    zero, one = Polynomial.zero(coords), Polynomial.const(coords, 1)
    dual = AlgebroidStructure(2, coords, [[zero, zero], [zero, zero]],
                              {(1, 2): (zero, one)}, "covector")
    return BialgebroidPair(tangent_algebroid(coords), dual, label="tangent-vs-solvable")


def tangent_against_tangent():
    """TR^2 against TR^2 with zero bracket and anchor eps_i -> d/dx_i: not a
    bialgebroid, since a a_*^T is not skew.  Every Dorfman bracket of frame
    sections vanishes, so its Courant anchor defect shows only on the x_a e_i
    and x_a eps^i, never on the frame."""
    coords = ("x1", "x2")
    zero, one = Polynomial.zero(coords), Polynomial.const(coords, 1)
    dual = AlgebroidStructure(2, coords, [[one, zero], [zero, one]], {}, "covector")
    return BialgebroidPair(tangent_algebroid(coords), dual, label="tangent-vs-tangent")


def quadratic_double(m):
    """The Poisson double of pi^ij = x_i x_j (i < j) over R^m."""
    return poisson_double(PoissonManifoldData(m, [
        ["0" if i == j else f"{'' if i < j else '-'}x{min(i, j) + 1}*x{max(i, j) + 1}"
         for j in range(m)] for i in range(m)]))


def log_canonical_double(c=(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4))):
    """The Poisson double of the log-canonical pi^jk = c_jk x_j x_k over R^3,
    c = (c_12, c_13, c_23): a quadratic dual anchor and non-integer linear
    dual brackets."""
    pi = [["0"] * 3 for _ in range(3)]
    for (j, k), value in zip(((0, 1), (0, 2), (1, 2)), c):
        pi[j][k] = f"{value}*x{j + 1}*x{k + 1}"
        pi[k][j] = f"{-value}*x{j + 1}*x{k + 1}"
    return poisson_double(PoissonManifoldData(3, pi))


def fresh_pair(P):
    """P with both structures built again from their data: empty frame
    tables on the structures, the pair and its flip."""
    return BialgebroidPair(*(AlgebroidStructure(side.rank, side.coordinates, side.anchor,
                                                side.brackets, side.section_kind)
                             for side in (P.A, P.Astar)), P.frame, P.label)


def build_corpus():
    """(label, pair) for every known bialgebroid used across the suites."""
    return [
        ("abelian-rank2", a_plus_b(0, 0, 0, 0)),
        ("a-plus-b:1,2,3,4", a_plus_b(1, 2, 3, 4)),
        ("a-plus-b:-2,1,1,3", a_plus_b(-2, 1, 1, 3)),
        ("a-plus-b:1/2,-1/3,2,5", a_plus_b(Fraction(1, 2), Fraction(-1, 3), 2, 5)),
        ("triangular-heisenberg", heisenberg_triangular_pair()),
        ("exact-heisenberg", heisenberg_exact_pair()),
        ("exact-so3", so3_exact_pair()),
        ("poisson-zero", poisson_double(poisson_data("zero"))),
        ("poisson-constant", poisson_double(poisson_data("constant"))),
        ("poisson-linear", poisson_double(poisson_data("linear"))),
    ]


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def counterexamples():
    pairs = find_counterexample_pairs(2)
    assert len(pairs) == 2
    return pairs


@pytest.fixture(scope="session")
def failing_pairs(counterexamples):
    """Every known non-bialgebroid: the two over a point and two over R^2."""
    return list(counterexamples) + [tangent_against_solvable(), tangent_against_tangent()]


PN_FIXTURES = ("pn-diag-x1-1-1", "pn-diag-x1-x2-x3-lambda-x3")


@pytest.fixture(scope="session")
def pn_failing_pairs():
    """Incompatible Poisson-Nijenhuis pairs over R^3: TR^3 deformed by
    N = diag(x1, 1, 1), resp. diag(x1, x2, x3), against the cotangent
    algebroid of lambda e1^e2 with lambda = 1, resp. x3.  Their thm-c c/d
    defects are not tensorial on a coordinate times eps^1, so they tell a
    tensoriality check that keeps the x_a from one that drops them."""
    return [pair_from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
            for name in PN_FIXTURES]
