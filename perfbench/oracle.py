"""Expected answers worked out without the package under test.

Everything here is plain Python over integers and Fractions.  It reads
the reports the package returns (their fields only) and compares them
with answers derived independently:

* over a point, a dual pair is a Lie bialgebroid exactly when it is a Lie
  bialgebra, i.e. when the transpose of the dual bracket is a 1-cocycle
  of the primal Lie algebra;
* a Poisson double is always a Lie bialgebroid (Mackenzie-Xu), and for
  the log-canonical bivector pi^{jk} = c_jk x_j x_k its modular field is
  X_Omega^j = x_j sum_k c_jk, so X0 = 2 X_Omega;
* the rank-2 family has f~ = -(bd + ac)/4.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


class Wrong(Exception):
    """The package returned an answer that differs from the expected one."""


class Failure(Exception):
    """A call failed in a way no correct answer allows (traceback, bad exit)."""


def expect(condition, message):
    if not condition:
        raise Wrong(message)


# -- structure constants over a point -------------------------------------------


def constants(brackets, rank):
    """{(i, j): [c^1..c^n]} with Fractions, from a document's bracket table."""
    table = {}
    for key, entry in brackets.items():
        i, j = (int(t) for t in key.split(",")) if isinstance(key, str) else key
        values = [Fraction(str(v)) for v in entry]
        if len(values) != rank:
            raise ValueError(f"bracket {key} has {len(values)} components")
        table[(i, j)] = values
    return table


def _bracket(table, rank, i, j):
    """[e_i, e_j] as a list of components (antisymmetric, zero on the diagonal)."""
    if i == j:
        return [Fraction(0)] * rank
    if i > j:
        return [-c for c in _bracket(table, rank, j, i)]
    return list(table.get((i, j), [Fraction(0)] * rank))


def _bracket_vectors(table, rank, x, y):
    out = [Fraction(0)] * rank
    for i, xi in enumerate(x, start=1):
        if not xi:
            continue
        for j, yj in enumerate(y, start=1):
            if not yj:
                continue
            for k, c in enumerate(_bracket(table, rank, i, j)):
                out[k] += xi * yj * c
    return out


def _basis(rank, i):
    return [Fraction(1) if k == i - 1 else Fraction(0) for k in range(rank)]


def satisfies_jacobi(table, rank):
    for i, j, k in combinations(range(1, rank + 1), 3):
        ei, ej, ek = (_basis(rank, t) for t in (i, j, k))
        total = [Fraction(0)] * rank
        for a, b, c in ((ei, ej, ek), (ej, ek, ei), (ek, ei, ej)):
            inner = _bracket_vectors(table, rank, a, b)
            for t, v in enumerate(_bracket_vectors(table, rank, inner, c)):
                total[t] += v
        if any(total):
            return False
    return True


def _delta(dual, rank, x):
    """delta(x) in wedge^2 g, the transpose of the dual bracket, as {(a, b): coeff}, a < b."""
    out = {}
    for (a, b), comps in dual.items():
        value = sum((xk * comps[k] for k, xk in enumerate(x)), Fraction(0))
        if value:
            out[(a, b)] = out.get((a, b), Fraction(0)) + value
    return out


def _add_wedge(acc, u, v, scale):
    """acc += scale * (u ^ v) for vectors u, v."""
    for a in range(len(u)):
        for b in range(len(v)):
            if a == b or not u[a] or not v[b]:
                continue
            key, sign = ((a + 1, b + 1), 1) if a < b else ((b + 1, a + 1), -1)
            acc[key] = acc.get(key, Fraction(0)) + sign * scale * u[a] * v[b]


def _act(table, rank, x, bivector):
    """x . (sum c_ab e_a ^ e_b) = sum c_ab ([x, e_a] ^ e_b + e_a ^ [x, e_b])."""
    out = {}
    for (a, b), c in bivector.items():
        ea, eb = _basis(rank, a), _basis(rank, b)
        _add_wedge(out, _bracket_vectors(table, rank, x, ea), eb, c)
        _add_wedge(out, ea, _bracket_vectors(table, rank, x, eb), c)
    return out


def is_lie_bialgebra(primal, dual, rank):
    """The 1-cocycle condition delta[x, y] = x . delta(y) - y . delta(x) on basis pairs."""
    for i, j in combinations(range(1, rank + 1), 2):
        ei, ej = _basis(rank, i), _basis(rank, j)
        lhs = _delta(dual, rank, _bracket_vectors(primal, rank, ei, ej))
        rhs = _act(primal, rank, ei, _delta(dual, rank, ej))
        for key, value in _act(primal, rank, ej, _delta(dual, rank, ei)).items():
            rhs[key] = rhs.get(key, Fraction(0)) - value
        keys = set(lhs) | set(rhs)
        if any(lhs.get(k, 0) != rhs.get(k, 0) for k in keys):
            return False
    return True


def a_plus_b_f_tilde(a, b, c, d):
    return -(Fraction(b) * Fraction(d) + Fraction(a) * Fraction(c)) / 4


def log_canonical_x0(c, dim):
    """Expected X0 = 2 X_Omega as {j: coefficient of x_j}; c is {(j, k): c_jk} for j < k."""
    out = {}
    for j in range(1, dim + 1):
        total = Fraction(0)
        for k in range(1, dim + 1):
            if (j, k) in c:
                total += c[(j, k)]
            elif (k, j) in c:
                total -= c[(k, j)]
        if total:
            out[j] = 2 * total
    return out


# -- reading the package's answers --------------------------------------------------


def linear_vector_terms(element):
    """{j: coefficient of x_j} for a degree-1 element whose components are c * x_j.

    Raises Wrong when a component has any other shape.
    """
    out = {}
    for index, poly in element.terms.items():
        # messages are built only on failure: printing runs package code
        if len(index) != 1:
            raise Wrong(f"{element} is not of degree 1")
        (j,) = index
        exps = next(iter(poly.terms))
        if len(poly.terms) != 1 or exps != tuple(int(t == j - 1) for t in range(len(exps))):
            raise Wrong(f"component {j} of {element} is not a multiple of x{j}")
        out[j] = Fraction(poly.terms[exps])
    return out


def constant_value(poly):
    if any(any(e) for e in poly.terms):
        raise Wrong(f"{poly} is not constant")
    return sum(poly.terms.values(), Fraction(0))


def check_verdict(kind, verdict, result, precondition_error=None):
    """Compare one library call's report with the expected verdict.

    ``kind`` names the call: check, leibniz, generator, theorem_c, courant or
    corollaries.  A corollary suite on a pair that is not a bialgebroid must
    refuse with ``precondition_error``; that refusal is the correct answer.
    """
    if kind == "corollaries" and not verdict:
        if precondition_error is None or not isinstance(result, precondition_error):
            raise Wrong(f"corollary_suite on a non-bialgebroid returned {result!r}")
        return
    if isinstance(result, BaseException):
        raise Wrong(f"{kind} raised {result!r}")
    if kind == "check":
        expect(result.square_formula_ok, f"square formula fails: {result.formula_witness}")
        expect(result.is_scalar == verdict,
               f"dirac_square.is_scalar = {result.is_scalar}, expected {verdict}")
        expect(verdict or result.witness, "failing scalar-square verdict without a witness")
        return
    expect(result.passed == verdict, f"{kind}: passed = {result.passed}, expected {verdict}")
    if not verdict:
        expect(any(r.witness for r in result.records if not r.passed),
               f"{kind}: failing verdict without a witness")
