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

Both the differential and the Schouten bracket are derivations, each fixed
by its values on the coordinates x_a and on frame generators
(Kosmann-Schwarzbach 1995; Xu 1999).  One loop, AlgebroidStructure._derive,
applies such a derivation to a frame monomial x_J, for the unit entries of
their frame tables:

    delta(x_J) = sum_t (+-1)^t x_{J<t} ^ delta(x_{J_t}) ^ x_{J>t}.

The differential is the odd derivation of the dual exterior algebra with
d x_a = sum_i rho(e_i)(x_a) eps^i (column a of the anchor) and
d eps^k = - sum_{i<j} c_ij^k eps^i ^ eps^j; d o d = 0 exactly when the
Jacobi and anchor-morphism axioms hold, which is what validate_algebroid
decides (with polynomial witnesses).  d has order 1 in the base
functions, with [d, x_a] = dx_a ^ ., so it is read off one frame table of
the structure (FrameTable _d_table: d eps^J, filled by _derive on the unit
coefficient, and dx_a ^ eps^J) by the reader of every such operator,
_order_one_apply:

    d(c x^gamma eps^J) = c x^gamma d eps^J + c sum_a gamma_a x^(gamma - 1_a) dx_a ^ eps^J.

The tables depend on the anchor and brackets alone, which never change,
so they live as long as the structure, and not on the section kind, so
the structure retyped for the flipped pair (_retyped) shares them.  The
same reader applies a pair's operators of order <= 1 on Multivectors,
their tables filled by _order_one_entry: D, each [D, c(e_alpha)] and
1/2 (L_{X_0} + L_{xi_0}).  One of order <= 2, the Laplacian of a pair,
adds the entries [[Q, x_a], x_b] e_I (_order_two_apply, _order_two_entry).

The Schouten bracket extends [.,.] and the anchor action as a graded
biderivation: [u, v ^ w] = [u, v] ^ w + (-1)^((|u|-1)|v|) v ^ [u, w] and
[u, v] = -(-1)^((|u|-1)(|v|-1)) [v, u].  It has order <= 1 in the
functions of each slot and no mixed second-order term, as [f, g] = 0 for
functions f, g, so it is read off one more frame table of the structure
(_schouten_table: S(I, J) = [e_I, e_J], filled by _derive on unit
coefficients, and S(I, J, a) = [e_I, x_a] ^ e_J, in closed form from the
anchor), free of the section kind like _d_table.

The boundary operator is the differential conjugated by the top
contraction (exterior._complement), one formula for both section kinds.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Tuple

from .exterior import (Form, FrameData, GradedElement, Index, Multivector, _accumulate,
                       _complement, _inverse_sign, _merge_sign, interior_by_form,
                       interior_by_multivector)
from .ring import Exponent, Polynomial, _add_term, field_bracket

Key = Tuple[int, int]
# A frame table entry: the terms of an element of the dual exterior
# algebra as (K, {exponent: coefficient}) pairs.
FrameTerms = Tuple[Tuple[Index, Dict[Exponent, Fraction]], ...]


class AlgebroidError(ValueError):
    pass


class FrameTable(dict):
    """A store that outlives a call: a table of values of its owner's
    immutable data, created empty in the owner's constructor and kept for
    the owner's life.  Readers index table[key]; a missing key calls
    fill(owner, key) once, stores the value and returns it, and a fill that
    raises stores nothing.  The table holds its owner by a weak reference,
    so owner and table form no reference cycle and are freed together as
    soon as the owner is dropped.

    These are the stores that outlive a call, and none lives for one call
    only:
    * four per AlgebroidStructure's anchor and brackets, free of the
      section kind and so shared by P's side and the same data's side of
      P.flipped() (AlgebroidStructure._retyped): _bracket_cache (the terms
      of [e_i, e_j]; bracket_pair and the fills of _schouten_table),
      _d_basis_cache (d eps^k), _d_table (d eps^J and [d, x_a] eps^J =
      dx_a ^ eps^J, read by _order_one_apply; differential) and
      _schouten_table ([e_I, e_J] and [e_I, x_a] ^ e_J; schouten);
    * seven per pair.BialgebroidPair, of its structures and frame, with
      P.flipped() keeping its own: _dirac_tables (D(e_I) and [D, x_a] e_I;
      dirac_apply), _dorfman_table (e_alpha o e_beta and D x_a; dorfman),
      _defect_table (X(e_alpha, e_beta) and rho(D x_a);
      _anchor_defect_field), _commutator_tables (per frame section, a
      FrameTable of [D, c(e_alpha)] e_I and {c(e_alpha), [D, x_a]} e_I;
      _odd_commutator), _modular_lie_table (1/2 (L_{X_0} + L_{xi_0})
      e_I and its [., x_a] e_I; _half_modular_lie), _laplacian_table
      (Lap(e_I), [Lap, x_a] e_I and [[Lap, x_a], x_b] e_I, a <= b, read by
      _order_two_apply; laplacian) and _trace_table (the thm-c (c) trace
      defect's frame values G(e_i, eps^j) with their first- and
      second-order terms, and the top-form constants a(e_alpha);
      _trace_residual and _top_lie_coefficient);
    * the sign tables of pairs of index tuples, exterior._merge_sign and
      _contract_sign, which depend on no owner: bounded functools.lru_cache
      tables (exterior._SIGN_CACHE).
    """

    __slots__ = ("owner", "fill")

    def __init__(self, owner, fill):
        super().__init__()
        self.owner = weakref.ref(owner)
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(self.owner(), key)
        return value


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

        # Frame tables of the immutable anchor and brackets (FrameTable),
        # free of the section kind, so that _retyped shares them.
        self._bracket_cache = FrameTable(self, AlgebroidStructure._bracket_entry)
        self._d_basis_cache = FrameTable(self, AlgebroidStructure._d_basis)
        self._d_table = FrameTable(self, AlgebroidStructure._d_entry)
        self._schouten_table = FrameTable(self, AlgebroidStructure._schouten_entry)

    def _check_poly(self, p):
        if not isinstance(p, Polynomial):
            raise AlgebroidError(f"expected Polynomial structure data, got {type(p).__name__}")
        if p.variables != self.coordinates:
            raise AlgebroidError(
                f"structure data context {p.variables!r} does not match coordinates {self.coordinates!r}")

    def _retyped(self, section_kind: str) -> "AlgebroidStructure":
        """The same anchor and brackets with the given section kind, holding
        this structure's frame tables, which do not depend on the kind.  The
        tables hold their owner by a weak reference, so the copy holds this
        structure (_source) to keep their fills working after it is dropped
        elsewhere; it forms no reference cycle."""
        twin = copy.copy(self)
        twin.section_kind = section_kind
        twin._source = self
        return twin

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

    # -- bracket on frame sections ------------------------------------------

    def bracket_pair(self, i: int, j: int):
        """[e_i, e_j] as a section, for any i, j (antisymmetric, zero on the diagonal)."""
        return self.section_cls._raw(self.rank, self.coordinates, self._bracket_terms(i, j))

    def _bracket_terms(self, i: int, j: int) -> Dict[Index, Polynomial]:
        """The terms of [e_i, e_j], read off the table of i < j."""
        if i == j:
            return {}
        if i > j:
            return {K: -p for K, p in self._bracket_cache[j, i].items()}
        return self._bracket_cache[i, j]

    def _bracket_entry(self, key: Key) -> Dict[Index, Polynomial]:
        """The terms {(k,): c_ij^k} of [e_i, e_j] for i < j, from the stored
        components."""
        comps = self.brackets.get(key, ())
        return {(k,): p for k, p in enumerate(comps, start=1) if not p.is_zero()}

    # -- the derivation loop ------------------------------------------------------

    def _derive(self, out: Dict[Index, Polynomial], J: Index, image, odd: bool) -> None:
        """Add delta(x_J) into out, for the derivation delta with
        delta(1) = 0 and delta(x_j) = image(j) (as terms):

            delta(x_J) = sum_t (+-1)^t x_{J<t} ^ delta(x_{J_t}) ^ x_{J>t},

        the sign (-1)^t for an odd derivation and +1 for an even one.  Each
        image is placed by _merge_sign on index tuples, with no temporary
        element."""
        for t, j in enumerate(J):
            pre, post = J[:t], J[t + 1:]
            flip = odd and t % 2 == 1
            for K, c in image(j).items():
                left = _merge_sign(pre, K)
                right = left and _merge_sign(left[1], post)
                if right:
                    _accumulate(out, right[1], c if (left[0] * right[0] > 0) != flip else -c)

    def _d_basis(self, k: int) -> Dict[Index, Polynomial]:
        """The terms of d eps^k = - sum_{i<j} c_ij^k eps^i ^ eps^j."""
        return {key: -comps[k - 1] for key, comps in self.brackets.items() if comps[k - 1]}

    def _d_entry(self, key: Tuple[Index, Optional[int]]) -> FrameTerms:
        """The terms of d eps^J at (J, None), through _derive with a unit
        coefficient, and of [d, x_a] eps^J = dx_a ^ eps^J at (J, a), where
        dx_a = sum_i rho(e_i)(x_a) eps^i is column a of the anchor."""
        J, a = key
        if a is None:
            out: Dict[Index, Polynomial] = {}
            self._derive(out, J, self._d_basis_cache.__getitem__, True)
            return tuple((K, p.terms) for K, p in out.items())
        column = []
        for i, row in enumerate(self.anchor, start=1):
            hit = _merge_sign((i,), J)
            if row[a] and hit is not None:
                terms = row[a].terms
                column.append((hit[1], terms if hit[0] > 0 else {e: -c for e, c in terms.items()}))
        return tuple(column)

    def differential(self, w):
        """Chevalley-Eilenberg differential on the dual exterior algebra.  d
        has order 1 in the base functions, with [d, x_a] = dx_a ^ ., so it
        is read off its frame table (_d_entry) by _order_one_apply:

            d(c x^gamma eps^J) = c x^gamma d eps^J
                                 + c sum_a gamma_a x^(gamma - 1_a) dx_a ^ eps^J."""
        if not isinstance(w, self.dual_cls):
            raise AlgebroidError(f"differential expects a {self.dual_cls.__name__}")
        if w.rank != self.rank or w.variables != self.coordinates:
            raise AlgebroidError("rank or variable context mismatch")
        return _order_one_apply(w, self._d_table)

    # -- Schouten bracket ------------------------------------------------------

    def _schouten_entry(self, key: Tuple[Index, Index, Optional[int]]) -> FrameTerms:
        """The terms of S(I, J) = [e_I, e_J] at (I, J, None) and of
        S(I, J, a) = [e_I, x_a] ^ e_J at (I, J, a), with k = |I|.

        [e_I, .] is the derivation of parity k - 1 with [e_I, 1] = 0, and its
        value on a generator e_m is [e_I, e_m] = -[e_m, e_I], the even
        derivation -[e_m, .] on e_I with -[e_m, e_i] = [e_i, e_m]: _derive
        run twice on unit coefficients.  On a coordinate it is
        [e_I, x_a] = sum_t (-1)^(k-1-t) rho^a_{I_t} e_{I without I_t}, from
        column a of the anchor."""
        I, J, a = key
        out: Dict[Index, Polynomial] = {}
        if a is None:
            def image(m):
                terms: Dict[Index, Polynomial] = {}
                self._derive(terms, I, lambda i: self._bracket_terms(i, m), False)
                return terms

            self._derive(out, J, image, bool((len(I) - 1) & 1))
        else:
            for t, i in enumerate(I):
                rho = self.anchor[i - 1][a]
                hit = rho and _merge_sign(I[:t] + I[t + 1:], J)
                if hit:
                    even = (len(I) - 1 - t) % 2 == 0
                    _accumulate(out, hit[1], rho if (hit[0] > 0) == even else -rho)
        return tuple((K, p.terms) for K, p in out.items())

    def schouten(self, u, v):
        """Schouten bracket of two sections of the exterior algebra of A,
        read off _schouten_table.  [., .] has order <= 1 in the functions of
        each slot and no mixed second-order term, since [f, g] = 0 for
        functions, so with k = |I| and l = |J|

            [x^gamma e_I, x^delta e_J] = x^(gamma + delta) S(I, J)
                + sum_a delta_a x^(gamma + delta - 1_a) S(I, J, a)
                - (-1)^((k-1)(l-1)) sum_a gamma_a x^(gamma + delta - 1_a) S(J, I, a),

        from [f e_I, g e_J] = f g [e_I, e_J] + f [e_I, g] ^ e_J
        - (-1)^((k-1)(l-1)) g [e_J, f] ^ e_I and [e_I, g] = sum_a (d_a g)
        [e_I, x_a].  Each table term is shifted in its exponent and scaled
        into one {K: {exponent: coefficient}} map, as in _order_one_apply.
        S((), J), S(I, ()) and S((), J, a) vanish, as [1, .] = [., 1] = 0
        for the unit function 1, and are not read."""
        for w in (u, v):
            if not isinstance(w, self.section_cls):
                raise AlgebroidError(f"schouten expects {self.section_cls.__name__} arguments")
            if w.rank != self.rank or w.variables != self.coordinates:
                raise AlgebroidError("rank or variable context mismatch")
        table, coords = self._schouten_table, self.coordinates
        acc: Dict[Index, Dict[Exponent, Fraction]] = {}
        for I, p in u.terms.items():
            for J, q in v.terms.items():
                unit = table[I, J, None] if I and J else ()
                swap = 1 if (len(I) - 1) * (len(J) - 1) % 2 else -1
                for g, c in p.terms.items():
                    for h, c2 in q.terms.items():
                        both = tuple(map(add, g, h))
                        cc = c2 if c == 1 else c if c2 == 1 else c * c2
                        _shifted_into(acc, unit, both, cc)
                        for a, (ga, ha) in enumerate(zip(g, h)):
                            if ga or ha:
                                lower = both[:a] + (both[a] - 1,) + both[a + 1:]
                                if ha and I:
                                    _shifted_into(acc, table[I, J, a], lower,
                                                  cc if ha == 1 else cc * ha)
                                if ga and J:
                                    k = ga * swap
                                    _shifted_into(acc, table[J, I, a], lower,
                                                  cc if k == 1 else -cc if k == -1 else cc * k)
        return self.section_cls._raw(self.rank, coords, {K: Polynomial._raw(coords, slot)
                                                         for K, slot in acc.items() if slot})

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
            if not x.terms and (target.rank, target.variables) == (self.rank, self.coordinates):
                return self.dual_cls.zero(self.rank, self.coordinates)  # L_0 takes no d
            return self._interior_into_dual(x, self.differential(target)) \
                + self.differential(self._interior_into_dual(x, target))
        raise AlgebroidError("target must live in the algebroid's exterior or dual exterior algebra")


def _shifted_into(acc: Dict[Index, Dict[Exponent, Fraction]], table: FrameTerms,
                  shift: Exponent, c: Fraction) -> None:
    """Add c x^shift times each table term into acc; c = 1 takes no product."""
    one = c == 1
    for K, terms in table:
        slot = acc.get(K)
        if slot is None:
            slot = acc[K] = {}
        for e, v in terms.items():
            _add_term(slot, tuple(map(add, e, shift)), v if one else c * v)


def _order_one_apply(u: GradedElement, table: FrameTable) -> GradedElement:
    """O(u) for an operator O of order <= 1 in the base functions, on u's
    exterior class (D and the differential d, for example), term by term
    from its table of O(e_I) at (I, None) and [O, x_a] e_I at (I, a):

        O(c x^gamma e_I) = c x^gamma O(e_I) + c sum_a gamma_a x^(gamma - 1_a) [O, x_a] e_I,

    as [O, f g] = f [O, g] + g [O, f] and [O, x_a] is C-infinity-linear.
    Each table term is shifted in its exponent and scaled into one
    {K: {exponent: coefficient}} map.
    """
    coords = u.variables
    acc: Dict[Index, Dict[Exponent, Fraction]] = {}
    for I, p in u.terms.items():
        unit = table[I, None]
        for g, c in p.terms.items():
            for a, k in enumerate(g):
                if k:
                    _shifted_into(acc, table[I, a], g[:a] + (k - 1,) + g[a + 1:],
                                  c if k == 1 else c * k)
            _shifted_into(acc, unit, g, c)
    return type(u)._raw(u.rank, coords, {K: Polynomial._raw(coords, slot)
                                         for K, slot in acc.items() if slot})


def _order_one_entry(table: FrameTable, I: Index, a: Optional[int], op,
                     frame: FrameData) -> FrameTerms:
    """The entry of table at (I, a) for the operator op on the frame's
    Multivectors: op(e_I) for a None, and [op, x_a] e_I = op(x_a e_I) -
    x_a op(e_I) for a coordinate index a, with op(e_I) read from the table."""
    gamma = tuple(int(b == a) for b in range(len(frame.variables)))
    value = op(Multivector.monomial(frame.rank, frame.variables, I,
                                    Polynomial._raw(frame.variables, {gamma: Fraction(1)})))
    if a is None:
        return tuple((K, q.terms) for K, q in value.terms.items())
    acc = {K: dict(q.terms) for K, q in value.terms.items()}
    _shifted_into(acc, table[I, None], gamma, Fraction(-1))
    return tuple((K, slot) for K, slot in acc.items() if slot)


def _order_two_apply(u: Multivector, table: FrameTable) -> Multivector:
    """Q(u) for an operator Q on Multivectors of order <= 2 in the base
    functions, term by term from its table of Q(e_I) at (I, None),
    Q_a e_I = [Q, x_a] e_I at (I, a) and Q_ab e_I = [[Q, x_a], x_b] e_I at
    (I, a, b) for a <= b:

        Q(c x^gamma e_I) = c x^gamma Q(e_I) + c sum_a gamma_a x^(gamma - 1_a) Q_a e_I
            + c sum_{a<b} gamma_a gamma_b x^(gamma - 1_a - 1_b) Q_ab e_I
            + c sum_a C(gamma_a, 2) x^(gamma - 2_a) Q_aa e_I.

    Order <= 2 makes each [[Q, f], g] C-infinity-linear and symmetric in
    f, g, so Q(g e_I) = g Q(e_I) + sum_a (d_a g) Q_a e_I + 1/2 sum_{a,b}
    (d_a d_b g) Q_ab e_I, the Taylor expansion that stops at second order."""
    coords = u.variables
    acc: Dict[Index, Dict[Exponent, Fraction]] = {}
    for I, p in u.terms.items():
        unit = table[I, None]
        for g, c in p.terms.items():
            support = [a for a, k in enumerate(g) if k]
            for a in support:
                k = g[a]
                lower = g[:a] + (k - 1,) + g[a + 1:]
                _shifted_into(acc, table[I, a], lower, c if k == 1 else c * k)
                if k > 1:
                    _shifted_into(acc, table[I, a, a], g[:a] + (k - 2,) + g[a + 1:],
                                  c * (k * (k - 1) // 2))
                for b in support:
                    if b > a:
                        _shifted_into(acc, table[I, a, b], lower[:b] + (g[b] - 1,) + lower[b + 1:],
                                      c * (k * g[b]))
            _shifted_into(acc, unit, g, c)
    return Multivector._raw(u.rank, coords, {K: Polynomial._raw(coords, slot)
                                             for K, slot in acc.items() if slot})


def _order_two_entry(table: FrameTable, I: Index, a: Optional[int], b: Optional[int], op,
                     frame: FrameData) -> FrameTerms:
    """The entry of table at (I, a) (_order_one_entry) for b None, and at
    (I, a, b) for coordinate indices a <= b: Q_ab e_I = op(x_a x_b e_I) -
    x_a Q_b e_I - x_b Q_a e_I - x_a x_b op(e_I), which for a = b subtracts
    x_a Q_a e_I twice, with the lower entries read from the table."""
    if b is None:
        return _order_one_entry(table, I, a, op, frame)
    m, variables = len(frame.variables), frame.variables
    one_a, one_b = (tuple(int(c == x) for c in range(m)) for x in (a, b))
    both = tuple(map(add, one_a, one_b))
    value = op(Multivector.monomial(frame.rank, variables, I,
                                    Polynomial._raw(variables, {both: Fraction(1)})))
    acc = {K: dict(q.terms) for K, q in value.terms.items()}
    _shifted_into(acc, table[I, b], one_a, Fraction(-1))
    _shifted_into(acc, table[I, a], one_b, Fraction(-1))
    _shifted_into(acc, table[I, None], both, Fraction(-1))
    return tuple((K, slot) for K, slot in acc.items() if slot)


def bv_boundary(algebroid: AlgebroidStructure, frame: FrameData, u):
    """Boundary operator on sections: d conjugated by the top contraction.

    On |u| = l, boundary u = (-1)^l inv(d(iota_u top)), where top is the
    degree-n element on the side dual to u and inv undoes the contraction
    with the sign of the double-contraction rule.  Both contractions are
    exterior._complement, which reads only the terms, so the one formula
    serves both section kinds and mixed degrees, with one differential call.
    Squares to zero and generates the Schouten bracket; both are tested,
    not assumed.
    """
    if not isinstance(u, algebroid.section_cls):
        raise AlgebroidError(f"bv_boundary expects a {algebroid.section_cls.__name__}")
    if frame.rank != algebroid.rank or frame.variables != algebroid.coordinates:
        raise AlgebroidError("frame does not match the algebroid")
    phi = _complement(u, algebroid.dual_cls, lambda l: -1 if l & 1 else 1)
    return _complement(algebroid.differential(phi), algebroid.section_cls, _inverse_sign(frame))


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
