"""Lie algebroid structures with polynomial anchor and structure functions.

An AlgebroidStructure fixes a trivialized rank-n bundle over a polynomial
base R^m: an anchor matrix (n rows of m polynomial components) and the
brackets of frame sections, [e_i, e_j] = sum_k c_ij^k e_k with polynomial
c_ij^k, stored for i < j only.

The same class describes both halves of a dual pair.  section_kind says
which exterior class plays the role of "sections of A": the primal side
uses Multivector, and the dual side uses Form, so that formulas written
once (differential, Schouten bracket, Lie derivative, boundary operator)
apply verbatim to either half.

The differential acts on the dual exterior algebra as the odd derivation
with d f = sum_i (rho(e_i) f) eps^i and
d eps^k = - sum_{i<j} c_ij^k eps^i ^ eps^j; d o d = 0 exactly when the
Jacobi and anchor-morphism axioms hold, which is what validate_algebroid
decides (with polynomial witnesses).

The Schouten bracket extends [.,.] and the anchor action as a graded
biderivation: [u, v ^ w] = [u, v] ^ w + (-1)^((|u|-1)|v|) v ^ [u, w] and
[u, v] = -(-1)^((|u|-1)(|v|-1)) [v, u].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .exterior import (Form, FrameData, GradedElement, Multivector,
                       interior_by_form, interior_by_multivector,
                       inverse_omega_sharp, omega_sharp, retype)
from .ring import Polynomial, apply_field, field_bracket

Key = Tuple[int, int]


class AlgebroidError(ValueError):
    pass


class AlgebroidStructure:
    """Trivialized Lie algebroid data over a polynomial base."""

    def __init__(self, rank: int, coordinates, anchor, brackets, section_kind: str = "vector"):
        self.rank = int(rank)
        self.coordinates = tuple(coordinates)
        if section_kind not in ("vector", "covector"):
            raise AlgebroidError(f"unknown section_kind {section_kind!r}")
        self.section_kind = section_kind

        rows = []
        anchor = list(anchor)
        if len(anchor) != self.rank:
            raise AlgebroidError(f"anchor needs {self.rank} rows, got {len(anchor)}")
        for row in anchor:
            row = tuple(row)
            if len(row) != len(self.coordinates):
                raise AlgebroidError(
                    f"anchor row has {len(row)} components for base dimension {len(self.coordinates)}")
            for p in row:
                self._check_poly(p)
            rows.append(row)
        self.anchor = tuple(rows)

        clean: Dict[Key, Tuple[Polynomial, ...]] = {}
        for key, comps in dict(brackets).items():
            i, j = key
            if not (1 <= i < j <= self.rank):
                raise AlgebroidError(f"bracket key {key!r} must satisfy 1 <= i < j <= rank")
            comps = tuple(comps)
            if len(comps) != self.rank:
                raise AlgebroidError(f"bracket {key!r} has {len(comps)} components, expected {self.rank}")
            for p in comps:
                self._check_poly(p)
            if any(not p.is_zero() for p in comps):
                clean[(i, j)] = comps
        self.brackets = clean

        self._bracket_cache: Dict[Key, GradedElement] = {}
        self._d_basis_cache: Dict[int, GradedElement] = {}

    def _check_poly(self, p):
        if not isinstance(p, Polynomial):
            raise AlgebroidError(f"expected Polynomial structure data, got {type(p).__name__}")
        if p.variables != self.coordinates:
            raise AlgebroidError(
                f"structure data context {p.variables!r} does not match coordinates {self.coordinates!r}")

    # -- frame bookkeeping ------------------------------------------------

    @property
    def section_cls(self):
        return Multivector if self.section_kind == "vector" else Form

    @property
    def dual_cls(self):
        return Form if self.section_kind == "vector" else Multivector

    def zero_section(self):
        return self.section_cls.zero(self.rank, self.coordinates)

    def basis_section(self, i: int):
        return self.section_cls.basis(self.rank, self.coordinates, i)

    # -- anchor -----------------------------------------------------------

    def anchor_field(self, u) -> Tuple[Polynomial, ...]:
        """Base vector field rho(u) of a degree-<=1 section, componentwise:
        the row of u's coefficients times the anchor matrix.  The loop runs
        over u's terms only and skips zero anchor entries, so over a point
        it costs next to nothing; ring.matrix_product, which needs the full
        row, made perfbench's point-algebras courant_s about 12 % slower."""
        if not isinstance(u, self.section_cls):
            raise AlgebroidError(f"anchor expects a {self.section_cls.__name__} section")
        comps = [Polynomial.zero(self.coordinates) for _ in self.coordinates]
        for ix, p in u.terms.items():
            if len(ix) != 1:
                raise AlgebroidError("anchor_field expects a purely degree-1 section")
            for a, entry in enumerate(self.anchor[ix[0] - 1]):
                if entry:
                    comps[a] = comps[a] + p * entry
        return tuple(comps)

    def anchor_apply(self, u, f: Polynomial) -> Polynomial:
        """rho(u) f for a degree-1 section u and a base function f."""
        return apply_field(self.anchor_field(u), f, self.coordinates)

    # -- bracket on frame sections ------------------------------------------

    def bracket_pair(self, i: int, j: int):
        """[e_i, e_j] as a section, for any i, j (antisymmetric, zero on the diagonal)."""
        if i == j:
            return self.zero_section()
        if i > j:
            return -self.bracket_pair(j, i)
        cached = self._bracket_cache.get((i, j))
        if cached is None:
            comps = self.brackets.get((i, j))
            if comps is None:
                cached = self.zero_section()
            else:
                terms = {(k + 1,): comps[k] for k in range(self.rank) if not comps[k].is_zero()}
                cached = self.section_cls(self.rank, self.coordinates, terms)
            self._bracket_cache[(i, j)] = cached
        return cached

    # -- differential ---------------------------------------------------------

    def _d_function(self, f: Polynomial):
        out = {}
        for i in range(1, self.rank + 1):
            c = apply_field(self.anchor[i - 1], f, self.coordinates)
            if not c.is_zero():
                out[(i,)] = c
        return self.dual_cls._raw(self.rank, self.coordinates, out)

    def _d_basis(self, k: int):
        cached = self._d_basis_cache.get(k)
        if cached is None:
            acc = self.dual_cls.zero(self.rank, self.coordinates)
            for (i, j), comps in self.brackets.items():
                c = comps[k - 1]
                if not c.is_zero():
                    acc = acc + self.dual_cls.monomial(self.rank, self.coordinates, (i, j), -c)
            self._d_basis_cache[k] = cached = acc
        return cached

    def differential(self, w):
        """Chevalley-Eilenberg differential on the dual exterior algebra."""
        if not isinstance(w, self.dual_cls):
            raise AlgebroidError(f"differential expects a {self.dual_cls.__name__}")
        if w.rank != self.rank or w.variables != self.coordinates:
            raise AlgebroidError("rank or variable context mismatch")
        out = self.dual_cls.zero(self.rank, self.coordinates)
        one = Polynomial.const(self.coordinates, 1)
        for J, p in w.terms.items():
            df = self._d_function(p)
            if not df.is_zero():
                out = out + df.wedge(self.dual_cls.monomial(self.rank, self.coordinates, J, one))
            for t in range(len(J)):
                de = self._d_basis(J[t])
                if de.is_zero():
                    continue
                pre = self.dual_cls.monomial(self.rank, self.coordinates, J[:t], p if t % 2 == 0 else -p)
                piece = pre.wedge(de).wedge(
                    self.dual_cls.monomial(self.rank, self.coordinates, J[t + 1:], one))
                out = out + piece
        return out

    # -- Schouten bracket ------------------------------------------------------

    def schouten(self, u, v):
        """Schouten bracket of two sections of the exterior algebra of A."""
        for w in (u, v):
            if not isinstance(w, self.section_cls):
                raise AlgebroidError(f"schouten expects {self.section_cls.__name__} arguments")
            if w.rank != self.rank or w.variables != self.coordinates:
                raise AlgebroidError("rank or variable context mismatch")
        out = self.zero_section()
        for I, pu in u.terms.items():
            for J, pv in v.terms.items():
                out = out + self._schouten_monomials(pu, I, pv, J)
        return out

    def _mono(self, index, coeff):
        return self.section_cls.monomial(self.rank, self.coordinates, index, coeff)

    def _schouten_monomials(self, pu, I, pv, J):
        k, l = len(I), len(J)
        if k == 0 and l == 0:
            return self.zero_section()
        if k == 0:
            # [f, v] = (-1)^|v| [v, f]
            res = self._schouten_monomials(pv, J, pu, I)
            return res if l % 2 == 0 else -res
        # peel the left coefficient:
        # [f A, B] = f [A, B] - (-1)^((k-1)(l-1)) [B, f] ^ A
        out = self._schouten_basis_left(I, pv, J)
        if not pu.is_constant() or pu.constant_value() != 1:
            out = out.scaled(pu)
        if not pu.is_constant() and l > 0:
            corr = self._schouten_monomials(pv, J, pu, ())  # [B, f]
            if not corr.is_zero():
                term = corr.wedge(self._mono(I, Polynomial.const(self.coordinates, 1)))
                if ((k - 1) * (l - 1)) % 2 == 0:
                    out = out - term
                else:
                    out = out + term
        return out

    def _schouten_basis_left(self, I, pv, J):
        """[e_I, pv e_J] for a bare basis monomial on the left."""
        k, l = len(I), len(J)
        one = Polynomial.const(self.coordinates, 1)
        if k == 1:
            i = I[0]
            out = self.zero_section()
            dpv = apply_field(self.anchor[i - 1], pv, self.coordinates)
            if not dpv.is_zero():
                out = out + self._mono(J, dpv)
            for t in range(l):
                br = self.bracket_pair(i, J[t])
                if br.is_zero():
                    continue
                piece = self._mono(J[:t], pv).wedge(br).wedge(self._mono(J[t + 1:], one))
                out = out + piece
            return out
        # [e_i ^ e_R, B] = e_i ^ [e_R, B] + (-1)^((k-1)(l-1)) [e_i, B] ^ e_R
        head, rest = I[0], I[1:]
        first = self._mono((head,), one).wedge(self._schouten_basis_left(rest, pv, J))
        second = self._schouten_basis_left((head,), pv, J).wedge(self._mono(rest, one))
        if ((k - 1) * (l - 1)) % 2:
            second = -second
        return first + second

    # -- Lie derivative -----------------------------------------------------------

    def _interior_into_dual(self, x, w):
        if self.section_kind == "vector":
            return interior_by_multivector(x, w)
        return interior_by_form(x, w)

    def lie_derivative(self, x, target):
        """Lie derivative along a degree-1 section.

        On sections of wedge A this is the Schouten bracket [x, .]; on the
        dual exterior algebra it is the Cartan formula iota_x d + d iota_x.
        """
        if not isinstance(x, self.section_cls) or x.degrees() not in ([], [1]):
            raise AlgebroidError("lie_derivative expects a degree-1 section")
        if isinstance(target, self.section_cls):
            return self.schouten(x, target)
        if isinstance(target, self.dual_cls):
            return self._interior_into_dual(x, self.differential(target)) \
                + self.differential(self._interior_into_dual(x, target))
        raise AlgebroidError("target must live in the algebroid's exterior or dual exterior algebra")


def bv_boundary(algebroid: AlgebroidStructure, frame: FrameData, u):
    """Boundary operator on sections obtained by conjugating d with the top contraction.

    Degreewise on |u| = l:  boundary u = (-1)^l inv(d(iota_u top)), where
    top is the degree-n element on the side dual to u and inv undoes the
    contraction with the degreewise sign of the double-contraction rule.
    Squares to zero and generates the Schouten bracket; both are tested,
    not assumed.

    Written once, for Multivector sections and top = omega.  On Form
    sections top is vee, which has the same terms as omega, so the same
    formula runs with each element moved across by retype.
    """
    if not isinstance(u, algebroid.section_cls):
        raise AlgebroidError(f"bv_boundary expects a {algebroid.section_cls.__name__}")
    if frame.rank != algebroid.rank or frame.variables != algebroid.coordinates:
        raise AlgebroidError("frame does not match the algebroid")
    across = retype if algebroid.section_kind == "covector" else (lambda element: element)
    out = algebroid.zero_section()
    for l in u.degrees():
        phi = across(omega_sharp(frame, across(u.homogeneous(l))))
        res = across(inverse_omega_sharp(frame, across(algebroid.differential(phi))))
        if l % 2:
            res = -res
        out = out + res
    return out


@dataclass
class ValidationReport:
    """Outcome of the axiom check, with polynomial witnesses on failure."""

    jacobi_ok: bool
    anchor_morphism_ok: bool
    witnesses: List[Tuple[Tuple, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.jacobi_ok and self.anchor_morphism_ok


def validate_algebroid(algebroid: AlgebroidStructure) -> ValidationReport:
    """Decide the Jacobi identity and anchor bracket-morphism property exactly.

    Jacobi is checked on frame triples i < j < k through the section
    bracket (which carries the anchor-derivative Leibniz corrections for
    polynomial structure functions); the anchor check compares
    rho([e_i, e_j]) with the commutator of base vector fields.
    """
    witnesses: List[Tuple[Tuple, str]] = []
    n = algebroid.rank

    jacobi_ok = True
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                ei, ej, ek = (algebroid.basis_section(t) for t in (i, j, k))
                acc = algebroid.schouten(algebroid.schouten(ei, ej), ek) \
                    + algebroid.schouten(algebroid.schouten(ej, ek), ei) \
                    + algebroid.schouten(algebroid.schouten(ek, ei), ej)
                if not acc.is_zero():
                    jacobi_ok = False
                    witnesses.append((("jacobi", i, j, k), str(acc)))

    anchor_ok = True
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lhs = algebroid.anchor_field(algebroid.bracket_pair(i, j))
            rhs = field_bracket(algebroid.anchor[i - 1], algebroid.anchor[j - 1],
                                algebroid.coordinates)
            residual = tuple(a - b for a, b in zip(lhs, rhs))
            if any(not r.is_zero() for r in residual):
                anchor_ok = False
                witnesses.append((("anchor", i, j),
                                  "(" + ", ".join(str(r) for r in residual) + ")"))

    return ValidationReport(jacobi_ok=jacobi_ok, anchor_morphism_ok=anchor_ok, witnesses=witnesses)
