"""Shared structures: a corpus of known-good pairs plus incompatible ones."""

from fractions import Fraction

import pytest

from bialgebroid import (AlgebroidStructure, BialgebroidPair, BivectorData,
                         Multivector, PoissonManifoldData, Polynomial, a_plus_b,
                         exact_from_bivector, find_counterexample_pairs,
                         poisson_double, tangent_algebroid)


def const(value, coords=()):
    return Polynomial.const(coords, value)


def point_algebra(rank, brackets, kind="vector"):
    """Structure over a zero-dimensional base from integer bracket data."""
    coords = ()
    table = {}
    for key, entry in brackets.items():
        table[key] = tuple(const(v) for v in entry)
    return AlgebroidStructure(rank, coords, [[] for _ in range(rank)], table, kind)


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
    """Every known non-bialgebroid: the two over a point and one over R^2."""
    return list(counterexamples) + [tangent_against_solvable()]
