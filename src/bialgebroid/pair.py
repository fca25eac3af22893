"""Dual pairs of Lie algebroid structures and their Dirac-type operator.

A BialgebroidPair holds two validated AlgebroidStructures on dual frames
(the primal side acting on Multivectors, the dual side on Forms) plus the
trivializing FrameData.  On top of that this module builds:

* the modular cocycles X_0 of A* and xi_0 of A,
* the boundary operators and Laplacians on both sides,
* the metric, Dorfman bracket, and Clifford action of the double,
* the odd operator

      D = dstar - boundary + 1/2 (X_0 ^ .  +  iota_{xi_0})

  acting on multivectors, and its mirror on forms,

and decides exactly whether D^2 is multiplication by a function, on the
products x^gamma e_I of at most 2 generators x_a, e_i
(_generator_products): D^2 - f~ has order <= 2 in the base coordinates
(which fixes |gamma| <= PROBE_DEGREE = 2) and over the supercommutative
algebra wedge A = Poly[x] (x) Lambda[e], by construction (the argument is
in dirac_square).  dirac_square and generator_check print the same scalar
witness (_square_failure); dirac_square reads it and the square formula's
off one D(D(u)) per probe, and generator_check scans with _square_witness.

The compatibility criterion (the derivation property of dstar over the
bracket), the twelve-part equivalence suite, the corollary identities,
the Courant axioms of the double, and the generating-operator conditions
are each exposed as report-producing functions with polynomial witnesses
on failure.

Derivation identities on generators.  The Leibniz rule of dstar over the
bracket (is_lie_bialgebroid, thm-c (a)) and the Laplacian as a derivation
of the wedge product (thm-c (i), g14) and of the bracket (g15) run through
one loop, _derivation_witness, on the unordered pairs u <= v of generators
x_a, e_i instead of all pairs of probes, since the defect is a graded
biderivation, symmetric up to sign; the argument is in its docstring.
Each Schouten bracket there is a read of the structure's frame table
(AlgebroidStructure.schouten), shared by P and its flip.
courant_axioms likewise decides each Courant axiom of the double on the
smallest section family the order of its defect allows: the frame, the
frame with its x_a multiples, and the coordinates x_a.  generator_check
decides the derived bracket [[D, c(e1)], c(e2)] = c(e1 o e2) on the frame
in both section slots once [D, f] = c(D f) and the anchor relation hold,
since these make its defect C-infinity-trilinear, and on the order-1
families otherwise.  On the frame the spinors are 1 and the e_i when D's
C-infinity-linear part is odd of Clifford degree <= 3, and all constant
e_I otherwise; the argument is in its docstring.

Mirrors by duality.  Each formula is written once.  A formula about one
algebroid is written over AlgebroidStructure, whose section_kind picks
Multivector or Form sections: the modular cocycle (_modular_class, run
on A for xi_0 and on A* for X_0) and the Lie derivative
(AlgebroidStructure.lie_derivative, along A or along A*).  A formula
about the pair is written for (A, A*) and mirrored through
BialgebroidPair.flipped(), since (A, A*) is a Lie bialgebroid exactly
when (A*, A) is (Mackenzie-Xu): the same frame with A*'s data as the
vector side and A's as the covector side, each held by P's structure
retyped (AlgebroidStructure._retyped), which shares its frame tables, and
elements moved across by the zero-copy exterior.retype.  The mirror operator on forms, f~*, the
'Astar' Laplacian and the items (b), (d), (f), (j), (l) of the
equivalence suite have no code of their own.  A mirror witness is the
primal witness found on the flipped pair, so it names flipped elements
(e[i] there is eps^i here) and carries the prefix "on (A*, A): ".

Stores that outlive a call.  Every decision runs on P and P.flipped().
The operators of order <= 1 in the base functions (d, D, each [D, c(e)]
and the square formula's half modular Lie derivative), the Laplacian, of
order <= 2, and the Schouten bracket and the thm-c (c)/(d) trace defect,
of order <= 1 in each slot, read term by term off frame tables of
immutable data, through algebroid._order_one_apply, _order_two_apply,
AlgebroidStructure.schouten and _trace_residual.  P and its flip
share the structure tables, each side's data filling its tables once, and
each keep their own seven pair tables; algebroid.FrameTable states the
contract and lists every store that outlives a call.  P holds its flip
and the flip holds P by a weak reference, so a dropped pair needs no
cycle collector.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Callable, Dict, List, Optional, Tuple

from .algebroid import (AlgebroidError, AlgebroidStructure, FrameTable, FrameTerms,
                        _order_one_apply, _order_one_entry, _order_two_apply, _order_two_entry,
                        _shifted_into, bv_boundary, validate_algebroid)
from .exterior import (Form, FrameData, Index, Multivector, _accumulate, _contract_sign,
                       _merge_sign, interior_by_form, interior_by_multivector, pairing, retype)
from .ring import (Exponent, Polynomial, apply_field, divergence, field_bracket, first_non_skew,
                   matrix_product)


class PairError(ValueError):
    pass


class PreconditionError(PairError):
    """A suite was asked to run on input that fails its precondition."""


class InternalError(Exception):
    """A check the code relies on failed on valid input: a fault in this
    package, not in the input, so deliberately not a ValueError."""


MIRROR_PREFIX = "on (A*, A): "


def _mirror_witness(witness: Optional[str]) -> Optional[str]:
    return None if witness is None else MIRROR_PREFIX + witness


PROBE_DEGREE = 2
"""Largest coefficient degree |gamma| of a probe x^gamma e_I.

Fixed by the order of the operators, so it is not a setting.  Orders are
counted twice.

In the base coordinates: D, the Laplacians and dstar are differential
operators of order <= 2 in the x with polynomial coefficients, and so is
D^2 - f~.  Such an operator acts as L(g e_I) = sum_{|alpha| <= 2}
c_{alpha,I} d^alpha g with polynomial-coefficient elements c_{alpha,I},
and L(x^gamma e_I) = sum_{alpha <= gamma} c_{alpha,I} gamma!/(gamma -
alpha)! x^(gamma - alpha) is triangular in them, so the values on all
x^gamma e_I with |gamma| <= 2 determine every c_{alpha,I}: L vanishes iff
it vanishes on those probes.  A smaller degree misses second-order terms;
a larger one reaches the same verdict more slowly.  The defects of the
bilinear identities thm-c (c)/(d) and (g)/(h) have order <= 1 in each
argument slot, and that of exact/descend order <= 1 in its one slot, so
these run on the degree-1 sections x^gamma e_i, x^gamma eps^j with
|gamma| <= 1 (the arguments are in _defect_witness, _pairing_witnesses
and constructions.exact_identities).

Over the whole algebra wedge A = Poly[x] (x) Lambda[e], D^2 - f~, the
square-formula defect and the (k) defect have order <= 2 (see
dirac_square), and an operator of order <= k is fixed by its values on
the products of at most k generators x_a, e_i (_generator_products).  No
probe has |gamma| > 2 in any family.
"""


@dataclass
class ModularData:
    """The two modular cocycles of a pair, in frame components."""

    x0: Multivector
    xi0: Form


@dataclass
class IdentityRecord:
    id: str
    passed: bool
    witness: Optional[str] = None

    def to_json(self) -> dict:
        out = {"id": self.id, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class IdentityReport:
    suite: str
    records: List[IdentityRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def record(self, rid: str) -> IdentityRecord:
        for r in self.records:
            if r.id == rid:
                return r
        raise KeyError(rid)

    def to_json(self) -> dict:
        return {"suite": self.suite, "pass": self.passed,
                "identities": [r.to_json() for r in self.records]}


@dataclass
class ScalarReport:
    """Outcome of the scalar-square decision for the Dirac-type operator."""

    is_scalar: bool
    f_tilde: Polynomial
    witness: Optional[str] = None
    square_formula_ok: bool = True
    formula_witness: Optional[str] = None

    def to_json(self) -> dict:
        out = {"is_scalar": self.is_scalar, "f_tilde": str(self.f_tilde),
               "square_formula_ok": self.square_formula_ok}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.formula_witness is not None:
            out["formula_witness"] = self.formula_witness
        return out


class SectionE:
    """Section of the double: a degree-1 multivector plus a degree-1 form."""

    __slots__ = ("vec", "cov")

    def __init__(self, vec: Multivector, cov: Form):
        if not isinstance(vec, Multivector) or not isinstance(cov, Form):
            raise PairError("SectionE needs a Multivector part and a Form part")
        if vec.rank != cov.rank or vec.variables != cov.variables:
            raise PairError("the two parts live in different frames")
        for part in (vec, cov):
            if part.degrees() not in ([], [1]):
                raise PairError("SectionE parts must be purely degree 1")
        self.vec = vec
        self.cov = cov

    @classmethod
    def _raw(cls, vec: Multivector, cov: Form) -> "SectionE":
        """A section from parts already known to be degree 1 in one frame."""
        self = object.__new__(cls)
        self.vec = vec
        self.cov = cov
        return self

    @classmethod
    def zero(cls, rank: int, variables) -> "SectionE":
        return cls(Multivector.zero(rank, variables), Form.zero(rank, variables))

    @classmethod
    def of(cls, vec: Multivector | None = None, cov: Form | None = None) -> "SectionE":
        if vec is None and cov is None:
            raise PairError("need at least one part")
        if vec is None:
            vec = Multivector.zero(cov.rank, cov.variables)
        if cov is None:
            cov = Form.zero(vec.rank, vec.variables)
        return cls(vec, cov)

    def __add__(self, other: "SectionE") -> "SectionE":
        return SectionE(self.vec + other.vec, self.cov + other.cov)

    def __sub__(self, other: "SectionE") -> "SectionE":
        return SectionE(self.vec - other.vec, self.cov - other.cov)

    def __neg__(self) -> "SectionE":
        return SectionE(-self.vec, -self.cov)

    def scaled(self, factor) -> "SectionE":
        return SectionE(self.vec.scaled(factor), self.cov.scaled(factor))

    def is_zero(self) -> bool:
        return self.vec.is_zero() and self.cov.is_zero()

    def __eq__(self, other):
        if not isinstance(other, SectionE):
            return NotImplemented
        return self.vec == other.vec and self.cov == other.cov

    def __str__(self):
        return f"{self.vec} (+) {self.cov}"

    def __repr__(self):
        return f"SectionE({self!s})"


class BialgebroidPair:
    """Two validated algebroid structures on dual frames over the same base.

    The constructor enforces the orientation convention (the primal side
    has Multivector sections, the dual side Form sections), equal ranks
    and coordinates, and that both halves pass validate_algebroid; it does
    NOT require compatibility, which is what the suites decide.
    """

    def __init__(self, A: AlgebroidStructure, Astar: AlgebroidStructure,
                 frame: FrameData | None = None, label: str = ""):
        if A.section_kind != "vector":
            raise PairError("the primal structure must have section_kind 'vector'")
        if Astar.section_kind != "covector":
            raise PairError("the dual structure must have section_kind 'covector'")
        if A.rank != Astar.rank or A.coordinates != Astar.coordinates:
            raise PairError("the two structures do not share rank and coordinates")
        if frame is None:
            frame = FrameData(A.rank, A.coordinates)
        if frame.rank != A.rank or frame.variables != A.coordinates:
            raise PairError("frame does not match the structures")
        for side, name in ((A, "A"), (Astar, "A*")):
            report = validate_algebroid(side)
            if not report.ok:
                raise AlgebroidError(
                    f"structure {name} fails the algebroid axioms: {report.witnesses}")
        self.A = A
        self.Astar = Astar
        self.frame = frame
        self.label = label
        self._modular: ModularData | None = None
        self._flipped: Callable[[], Optional[BialgebroidPair]] = lambda: None
        self._create_frame_tables()

    def _create_frame_tables(self) -> None:
        """The pair's seven frame tables, empty (algebroid.FrameTable), for
        __init__ and the twin flipped() builds.  A fill looks up its entry
        function when an entry is missing."""
        self._dirac_tables = FrameTable(self, lambda P, key: _dirac_entry(P, *key))
        self._laplacian_table = FrameTable(self, lambda P, key: _laplacian_entry(P, *key))
        self._modular_lie_table = FrameTable(self, lambda P, key: _modular_lie_entry(P, *key))
        self._dorfman_table = FrameTable(self, lambda P, key: _dorfman_entry(P, *key))
        self._defect_table = FrameTable(self, lambda P, key: _defect_entry(P, *key))
        self._trace_table = FrameTable(self, lambda P, key: _trace_entry(P, *key))
        self._commutator_tables = FrameTable(self, lambda P, alpha: FrameTable(
            P, lambda Q, key: _commutator_entry(Q, alpha, *key)))

    # -- bookkeeping ------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.A.rank

    @property
    def coordinates(self) -> Tuple[str, ...]:
        return self.A.coordinates

    def basis_e(self, i: int) -> Multivector:
        return Multivector.basis(self.rank, self.coordinates, i)

    def basis_eps(self, j: int) -> Form:
        return Form.basis(self.rank, self.coordinates, j)

    def scalar_mv(self, value) -> Multivector:
        return Multivector.scalar(self.rank, self.coordinates, value)

    def scalar_form(self, value) -> Form:
        return Form.scalar(self.rank, self.coordinates, value)

    # -- the four first-order operators ------------------------------------

    def d(self, theta: Form) -> Form:
        return self.A.differential(theta)

    def dstar(self, u: Multivector) -> Multivector:
        return self.Astar.differential(u)

    def boundary(self, u: Multivector) -> Multivector:
        return bv_boundary(self.A, self.frame, u)

    def boundary_star(self, theta: Form) -> Form:
        return bv_boundary(self.Astar, self.frame, theta)

    # -- modular cocycles ----------------------------------------------------

    @property
    def modular(self) -> ModularData:
        if self._modular is None:
            self._modular = modular_cocycles(self)
        return self._modular

    def f_tilde(self) -> Polynomial:
        return f_tilde(self)

    def flipped(self) -> "BialgebroidPair":
        """The pair (A*, A): A*'s data on the vector side, A's on the covector side.

        Built once, and P holds it for the rest of its life; the flip holds
        P by a weak reference, so P.flipped().flipped() is P while P lives,
        and the two form no reference cycle: a dropped pair is freed with
        its flip and their tables without the cycle collector.  A flip whose
        P is gone builds a fresh flip of its own when asked.  The halves
        are P's structures retyped (AlgebroidStructure._retyped): they hold
        P's structure tables, which do not depend on the section kind, so
        an entry filled on one pair is read on the other.  They are not
        re-validated (the axioms do not depend on which side is called
        primal), and the modular cocycles are P's, swapped and retyped, not
        recomputed.  The flip keeps seven pair tables of its own.
        """
        twin = self._flipped()
        if twin is None:
            mod = self.modular
            twin = object.__new__(BialgebroidPair)
            twin.A = self.Astar._retyped("vector")
            twin.Astar = self.A._retyped("covector")
            twin.frame = self.frame
            twin.label = self.label
            twin._modular = ModularData(x0=retype(mod.xi0), xi0=retype(mod.x0))
            twin._flipped = weakref.ref(self)
            twin._create_frame_tables()
            self._flipped = lambda: twin
        return twin


# -- probe families ------------------------------------------------------------


def coordinate_monomials(variables, max_degree: int) -> List[Polynomial]:
    """All monomials x^gamma with |gamma| <= max_degree, low degree first."""
    variables = tuple(variables)
    out = []
    m = len(variables)
    for total in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(m), total):
            exps = [0] * m
            for i in combo:
                exps[i] += 1
            out.append(Polynomial(variables, {tuple(exps): Fraction(1)}))
    return out


def _graded_probes(P: BialgebroidPair, coord_degree, max_index_size, total_degree=None):
    """x^gamma e_I with |gamma| <= coord_degree and |I| <= max_index_size, and
    |gamma| + |I| <= total_degree if given: by |I|, then I, then the degree
    of x^gamma."""
    rank, variables = P.rank, P.coordinates
    monos = coordinate_monomials(variables, coord_degree)
    out = []
    for size in range(0, min(max_index_size, rank) + 1):
        kept = monos if total_degree is None else \
            [f for f in monos if f.total_degree() <= total_degree - size]
        for index in itertools.combinations(range(1, rank + 1), size):
            for f in kept:
                out.append(Multivector.monomial(rank, variables, index, f))
    return out


def multivector_probes(P: BialgebroidPair, coord_degree: int) -> List[Multivector]:
    return _graded_probes(P, coord_degree, P.rank)


def _generator_products(P: BialgebroidPair, k: int) -> List[Multivector]:
    """The products x^gamma e_I of at most k generators x_a, e_i with
    |gamma| <= PROBE_DEGREE, in the order of multivector_probes, which they
    are a subsequence of.  An operator of order <= k over wedge A vanishes
    iff it vanishes on them (see PROBE_DEGREE and dirac_square).  For k = 1
    they are 1 followed by the generators x_1..x_m, e_1..e_n."""
    return _graded_probes(P, min(k, PROBE_DEGREE), k, k)


def degree1_multivector_probes(P: BialgebroidPair, coord_degree: int) -> List[Multivector]:
    monos = coordinate_monomials(P.coordinates, coord_degree)
    return [Multivector.monomial(P.rank, P.coordinates, (i,), f)
            for i in range(1, P.rank + 1) for f in monos]


def degree1_form_probes(P: BialgebroidPair, coord_degree: int) -> List[Form]:
    monos = coordinate_monomials(P.coordinates, coord_degree)
    return [Form.monomial(P.rank, P.coordinates, (j,), f)
            for j in range(1, P.rank + 1) for f in monos]


# -- modular cocycles -----------------------------------------------------------


def modular_cocycles(P: BialgebroidPair) -> ModularData:
    """Frame components of the modular cocycles: xi_0 is the modular class
    of A and X_0 that of A*, each from _modular_class."""
    return ModularData(x0=_modular_class(P.Astar, P.frame), xi0=_modular_class(P.A, P.frame))


def _modular_class(side: AlgebroidStructure, frame: FrameData):
    """The modular cocycle of one algebroid, an element of its dual exterior
    algebra, with components <class, s_i> = div_s(rho(s_i)) + (coefficient
    of [s_i, top] on top) for the frame s_i and the top element of the
    algebroid's own exterior algebra (V on A, Omega on A*).
    The defining equation is re-checked on x_a s_i (it must be
    C-infinity-linear for a valid structure; failure means an
    implementation bug, so it raises InternalError).
    """
    n, coords = side.rank, side.coordinates
    top = side.section_cls.monomial(n, coords, frame.top_index, 1)

    def component(s) -> Polynomial:
        lead = side.schouten(s, top).coefficient(frame.top_index)
        return divergence(side.anchor_field(s), coords) + lead

    comps = [component(side.basis_section(i)) for i in range(1, n + 1)]
    for f in coordinate_monomials(coords, 1)[1:]:
        for i in range(1, n + 1):
            probe = side.section_cls.monomial(n, coords, (i,), f)
            if component(probe) != comps[i - 1] * f:
                raise InternalError(
                    f"modular defining relation is not tensorial on {probe} (internal error)")
    return side.dual_cls(n, coords, {(i,): c for i, c in enumerate(comps, start=1)})


def f_tilde(P: BialgebroidPair) -> Polynomial:
    """The scalar candidate 1/2 (1/2 <xi_0, X_0> - boundary X_0)."""
    mod = P.modular
    inner = pairing(mod.xi0, mod.x0)
    bx0 = P.boundary(mod.x0).scalar_part()
    value = (inner * Fraction(1, 2) - bx0) * Fraction(1, 2)
    if not P.coordinates and not value.is_constant():
        raise InternalError("non-constant scalar over a point base (internal error)")
    return value


def f_tilde_star(P: BialgebroidPair) -> Polynomial:
    """Mirror candidate 1/2 (1/2 <xi_0, X_0> - boundary_star xi_0): f~ of (A*, A)."""
    return f_tilde(P.flipped())


# -- Laplacians and mixed Lie derivatives ------------------------------------------


def laplacian(P: BialgebroidPair, target):
    """d_* boundary + boundary d_* on a Multivector, term by term from P's
    Laplacian table (algebroid._order_two_apply); on a Form, the mirror
    d boundary_* + boundary_* d, which is the former on (A*, A).

    This is exact for any structure data, valid or not, because the
    Laplacian has order <= 2 in the base functions: [d_*, f] = (d_* f) ^ .
    and [boundary, f] are C-infinity-linear (see dirac_apply), so d_* and
    the boundary have order <= 1, and so has [Lap, f] = [d_*, f] boundary +
    d_* [boundary, f] + [boundary, f] d_* + boundary [d_*, f].  The entries
    Lap(e_I), [Lap, x_a] e_I and [[Lap, x_a], x_b] e_I (a <= b) are filled
    on first use (_laplacian_entry) and kept in P._laplacian_table for the
    life of the pair: at most 2^n (1 + m + m (m + 1) / 2) entries.
    """
    if isinstance(target, Form):
        return retype(laplacian(P.flipped(), retype(target)))
    _check_in_frame(P, target, "laplacian")
    return _order_two_apply(target, P._laplacian_table)


def _laplacian_entry(P: BialgebroidPair, I: Index, a: Optional[int],
                     b: Optional[int] = None) -> FrameTerms:
    """P's Laplacian table entry at (I, a) or (I, a, b) (_order_two_entry),
    with the Laplacian by the formula d_* boundary + boundary d_*."""
    def lap(u):
        return P.dstar(P.boundary(u)) + P.boundary(P.dstar(u))
    return _order_two_entry(P._laplacian_table, I, a, b, lap, P.frame)


def _half_modular_lie(P: BialgebroidPair, target):
    """1/2 (L_{X_0} + L_{xi_0}) target on a Multivector, term by term from
    P's modular Lie table (algebroid._order_one_apply); on a Form, the same
    on (A*, A), whose X_0 and xi_0 are P's, swapped.

    This is exact for any structure data, valid or not, because the
    operator has order <= 1 in the base functions: L_{X_0} on Multivectors
    is the Schouten bracket [X_0, .] and L_{xi_0} the Cartan formula
    iota_{xi_0} d_* + d_* iota_{xi_0}, so [L_{X_0}, f] = rho(X_0) f and
    [L_{xi_0}, f] = rho_*(xi_0) f are multiplications by functions.  The
    entries and their bound are dirac_apply's, filled on first use
    (_modular_lie_entry) and kept in P._modular_lie_table.
    """
    if isinstance(target, Form):
        return retype(_half_modular_lie(P.flipped(), retype(target)))
    _check_in_frame(P, target, "_half_modular_lie")
    return _order_one_apply(target, P._modular_lie_table)


def _modular_lie_entry(P: BialgebroidPair, I: Index, a: Optional[int]) -> FrameTerms:
    """P's modular Lie table entry at (I, a) (_order_one_entry), with
    1/2 (L_{X_0} + L_{xi_0}) by the Lie derivatives of both structures."""
    mod = P.modular

    def half_lie(u):
        return (P.A.lie_derivative(mod.x0, u)
                + P.Astar.lie_derivative(mod.xi0, u)).scaled(Fraction(1, 2))
    return _order_one_entry(P._modular_lie_table, I, a, half_lie, P.frame)


def _check_in_frame(P: BialgebroidPair, u, name: str) -> None:
    if not isinstance(u, Multivector) or u.rank != P.rank or u.variables != P.coordinates:
        raise PairError(f"{name} expects a Multivector or Form in the pair's frame")


# -- double: metric, D, Dorfman, Clifford ----------------------------------------


def metric(e1: SectionE, e2: SectionE) -> Polynomial:
    """<X1+xi1, X2+xi2> = 1/2 (xi1(X2) + xi2(X1))."""
    return (pairing(e1.cov, e2.vec) + pairing(e2.cov, e1.vec)) * Fraction(1, 2)


def dee(P: BialgebroidPair, f: Polynomial) -> SectionE:
    """D f = dstar f + d f, the section with <D f, x> = 1/2 rho(x) f."""
    return SectionE(P.dstar(P.scalar_mv(f)), P.d(P.scalar_form(f)))


def rho_field(P: BialgebroidPair, e: SectionE) -> Tuple[Polynomial, ...]:
    """Base vector field rho(e) = a(vec) + a_*(cov), componentwise."""
    av = P.A.anchor_field(e.vec)
    ac = P.Astar.anchor_field(e.cov)
    return tuple(p + q for p, q in zip(av, ac))


def _anchor_defect(P: BialgebroidPair, rho_x, rho_y, x_o_y: SectionE):
    """rho(x o y) and [rho x, rho y] componentwise, given x o y and the
    fields rho x, rho y; the Courant anchor defect is their difference.
    A zero bracket has the zero field, which takes no anchor."""
    lhs = rho_field(P, x_o_y) if not x_o_y.is_zero() else \
        tuple(Polynomial.zero(P.coordinates) for _ in P.coordinates)
    return lhs, field_bracket(rho_x, rho_y, P.coordinates)


def rho_apply(P: BialgebroidPair, e: SectionE, f: Polynomial) -> Polynomial:
    """rho(e) f = a(vec) f + a_*(cov) f."""
    return apply_field(rho_field(P, e), f, P.coordinates)


def dorfman(P: BialgebroidPair, e1: SectionE, e2: SectionE) -> SectionE:
    """Dorfman bracket of the double, term by term from P's Dorfman table.
    With e_alpha the 2n frame sections e_i, eps^j and rho_alpha the anchor
    row of e_alpha (of A or of A*):

        (c x^gamma e_alpha) o (d x^delta e_beta) = c d [x^(gamma+delta) e_alpha o e_beta
            + sum_a delta_a rho_alpha^a x^(gamma+delta-1_a) e_beta
            - sum_a gamma_a rho_beta^a x^(gamma+delta-1_a) e_alpha
            + [alpha, beta a dual pair e_i, eps^i] sum_a gamma_a x^(gamma+delta-1_a) D x_a].

    This is the direct formula's bracket (_dorfman_direct) for any two
    validated halves, compatible or not, by its two Leibniz rules in the
    base functions (Liu-Weinstein-Xu 1997):
    * x o (f y) = f (x o y) + (rho(x) f) y, as [X1, .], [xi1, .]_* and the
      Lie derivatives are derivations over functions and iota_{f y} =
      f iota_y;
    * (f x) o y = f (x o y) - (rho(y) f) x + 2 <x, y> D f, from d_*(f X1) =
      d_* f ^ X1 + f d_* X1, d(f xi1) = d f ^ xi1 + f d xi1 and the Cartan
      formula L_{f x} = f L_x + d f ^ iota_x on either side;
    with D f = sum_a (d_a f) D x_a and 2 <e_i, eps^j> = delta_ij.  The
    frame brackets and the D x_a are filled on first use (_dorfman_entry)
    and kept in P._dorfman_table for the life of the pair: at most
    4 n^2 + m entries.  The anchor rows are the structure data itself.
    """
    coords, rank = P.coordinates, P.rank
    if any(e.vec.rank != rank or e.vec.variables != coords for e in (e1, e2)):
        raise PairError("dorfman expects sections in the pair's frame")
    table, rows, dual_rows = P._dorfman_table, (None,) + P.A.anchor, (None,) + P.Astar.anchor
    right = _frame_parts(e2)
    acc: Dict[int, Dict[Exponent, Fraction]] = {}
    for alpha, p in _frame_parts(e1):
        row_alpha = rows[alpha] if alpha > 0 else dual_rows[-alpha]
        for beta, q in right:
            frame_bracket = table[alpha, beta]
            row_beta = rows[beta] if beta > 0 else dual_rows[-beta]
            for g, c in p.items():
                for h, d in q.items():
                    cd, s = c if d == 1 else c * d, tuple(map(add, g, h))
                    _shifted_into(acc, frame_bracket, s, cd)
                    for a, k in enumerate(s):
                        if not k:
                            continue
                        shift = s[:a] + (k - 1,) + s[a + 1:]
                        if h[a] and row_alpha[a]:
                            _shifted_into(acc, ((beta, row_alpha[a].terms),), shift, cd * h[a])
                        if g[a] and row_beta[a]:
                            _shifted_into(acc, ((alpha, row_beta[a].terms),), shift, -cd * g[a])
                        if g[a] and alpha == -beta:
                            _shifted_into(acc, table[None, a], shift, cd * g[a])
    vec = {(K,): Polynomial._raw(coords, slot) for K, slot in acc.items() if K > 0 and slot}
    cov = {(-K,): Polynomial._raw(coords, slot) for K, slot in acc.items() if K < 0 and slot}
    return SectionE._raw(Multivector._raw(rank, coords, vec), Form._raw(rank, coords, cov))


def _frame_parts(e: SectionE):
    """The parts of a section as (i, terms) for e_i and (-j, terms) for eps^j."""
    return [(I[0], p.terms) for I, p in e.vec.terms.items()] \
        + [(-J[0], p.terms) for J, p in e.cov.terms.items()]


def _dorfman_entry(P: BialgebroidPair, alpha: Optional[int], b: int) -> FrameTerms:
    """P's Dorfman table entry at (alpha, b): e_alpha o e_b by the direct
    formula for signed frame indices alpha, b (i for e_i, -j for eps^j),
    and D x_b = dstar x_b + d x_b for alpha None."""
    if alpha is None:
        value = dee(P, Polynomial.variable(P.coordinates, P.coordinates[b]))
    else:
        value = _dorfman_direct(P, _frame_section(P, alpha), _frame_section(P, b))
    return tuple(_frame_parts(value))


def _frame_section(P: BialgebroidPair, k: int) -> SectionE:
    """The frame section e_k for k > 0, eps^(-k) for k < 0."""
    return SectionE.of(vec=P.basis_e(k)) if k > 0 else SectionE.of(cov=P.basis_eps(-k))


def _dorfman_direct(P: BialgebroidPair, e1: SectionE, e2: SectionE) -> SectionE:
    """Dorfman bracket of the double by its defining formula, which fills
    P's Dorfman table (dorfman):

    (X1+xi1) o (X2+xi2) = ([X1,X2] + L_{xi1} X2 - iota_{xi2} dstar X1)
                        + ([xi1,xi2]_* + L_{X1} xi2 - iota_{X2} d xi1).

    The mixed terms are bilinear in (X1, xi2) and in (xi1, X2), so they
    are taken only when both parts are nonzero.
    """
    X1, xi1, X2, xi2 = e1.vec, e1.cov, e2.vec, e2.cov
    vec, cov = P.A.schouten(X1, X2), P.Astar.schouten(xi1, xi2)
    if X1.terms and xi2.terms:
        vec = vec - interior_by_form(xi2, P.dstar(X1))
        cov = cov + P.A.lie_derivative(X1, xi2)
    if xi1.terms and X2.terms:
        vec = vec + P.Astar.lie_derivative(xi1, X2)
        cov = cov - interior_by_multivector(X2, P.d(xi1))
    return SectionE(vec, cov)


def _anchor_defect_field(P: BialgebroidPair, x: SectionE, y: SectionE) -> Tuple[Polynomial, ...]:
    """The Courant anchor defect X(x, y) = rho(x o y) - [rho x, rho y],
    componentwise, term by term from P's defect table.  With e_alpha the
    2n frame sections e_i, eps^j (signed indices, as in dorfman):

        X(sum_alpha p_alpha e_alpha, sum_beta q_beta e_beta) = sum p_alpha q_beta X(e_alpha, e_beta)
            + sum_{alpha = -beta} q_beta sum_a (d_a p_alpha) rho(D x_a).

    This is _anchor_defect's lhs - rhs for any two validated halves,
    compatible or not, by the Leibniz rules of the Dorfman bracket (see
    dorfman) and of the commutator of vector fields:
    * X(x, f y) = f X(x, y), as rho(x o f y) = f rho(x o y) + (rho(x) f)
      rho(y) and [rho x, f rho y] = f [rho x, rho y] + (rho(x) f) rho(y)
      (courant/g3);
    * X(f x, y) = f X(x, y) + 2 <x, y> rho(D f), as rho((f x) o y) =
      f rho(x o y) - (rho(y) f) rho(x) + 2 <x, y> rho(D f) and
      [f rho x, rho y] = f [rho x, rho y] - (rho(y) f) rho(x);
    * rho(D f) = sum_a (d_a f) rho(D x_a), as D f = dstar f + d f is a
      derivation in f, and 2 <e_i, eps^j> = delta_ij, 2 <e_i, e_j> =
      2 <eps^i, eps^j> = 0.
    The frame defects and the fields rho(D x_a) are filled on first use
    (_defect_entry) and kept in P._defect_table for the life of the pair:
    at most 4 n^2 + m entries.
    """
    coords, table = P.coordinates, P._defect_table
    right = _frame_parts(y)
    acc: Dict[int, Dict[Exponent, Fraction]] = {}
    for alpha, p in _frame_parts(x):
        for beta, q in right:
            frame_defect = table[alpha, beta]
            for g, c in p.items():
                for h, d in q.items():
                    cd, s = c if d == 1 else c * d, tuple(map(add, g, h))
                    _shifted_into(acc, frame_defect, s, cd)
                    if alpha != -beta:
                        continue
                    for a, k in enumerate(g):
                        if k:
                            _shifted_into(acc, table[None, a], s[:a] + (s[a] - 1,) + s[a + 1:],
                                          cd * k)
    return tuple(Polynomial._raw(coords, acc.get(a, {})) for a in range(len(coords)))


def _defect_entry(P: BialgebroidPair, alpha: Optional[int], b: int) -> FrameTerms:
    """P's defect table entry at (alpha, b), as (component, terms) pairs:
    X(e_alpha, e_b) = rho(e_alpha o e_b) - [rho_alpha, rho_b] by
    _anchor_defect for signed frame indices alpha, b, with e_alpha o e_b
    read off the Dorfman table, and rho(D x_b) for alpha None."""
    if alpha is None:
        value = rho_field(P, dee(P, Polynomial.variable(P.coordinates, P.coordinates[b])))
    else:
        rows = [P.A.anchor[k - 1] if k > 0 else P.Astar.anchor[-k - 1] for k in (alpha, b)]
        bracket = dorfman(P, _frame_section(P, alpha), _frame_section(P, b))
        lhs, rhs = _anchor_defect(P, *rows, bracket)
        value = [p - q for p, q in zip(lhs, rhs)]
    return tuple((a, v.terms) for a, v in enumerate(value) if v)


def _first_component(field) -> Optional[int]:
    """The first a with field^a != 0, or None for the zero field."""
    return next((a for a, v in enumerate(field) if v), None)


def clifford_act(e: SectionE, w: Multivector) -> Multivector:
    """Spinor action e . w = vec ^ w + iota_cov w; squares to <e,e> w."""
    return e.vec.wedge(w) + interior_by_form(e.cov, w)


# -- the Dirac-type operator --------------------------------------------------------


def dirac_apply(P: BialgebroidPair, u: Multivector) -> Multivector:
    """D u = dstar u - boundary u + 1/2 (X_0 ^ u + iota_{xi_0} u), term by
    term from P's D table (_order_one_apply).

    This is exact for any structure data, valid or not, because D has order
    <= 1 in the base functions: [D, f] is C-infinity-linear for every
    polynomial f.  dstar is a derivation, so [dstar, f] = (dstar f) ^ .;
    the boundary is d conjugated by the top contraction, which is
    C-infinity-linear, so [boundary, f] is (d f) ^ . conjugated the same
    way; X_0 ^ . and iota_{xi_0} commute with f.

    The entries D(e_I) and [D, x_a] e_I = D(x_a e_I) - x_a D(e_I) are
    filled on first use (_dirac_entry) and kept in P._dirac_tables for
    the life of the pair, since they depend on its immutable data alone:
    at most 2^n (1 + m) entries.
    """
    if not isinstance(u, Multivector) or u.rank != P.rank or u.variables != P.coordinates:
        raise PairError("dirac_apply expects a Multivector in the pair's frame")
    return _order_one_apply(u, P._dirac_tables)


def _dirac_entry(P: BialgebroidPair, I: Index, a: Optional[int]) -> FrameTerms:
    """P's D table entry at (I, a) (_order_one_entry), with D by the
    formula dstar - boundary + 1/2 (X_0 ^ . + iota_{xi_0})."""
    mod, half = P.modular, Fraction(1, 2)

    def dirac(u):
        return P.dstar(u) - P.boundary(u) \
            + mod.x0.wedge(u).scaled(half) + interior_by_form(mod.xi0, u).scaled(half)
    return _order_one_entry(P._dirac_tables, I, a, dirac, P.frame)


def _odd_commutator(P: BialgebroidPair, e: SectionE, w: Multivector) -> Multivector:
    """[D, c(e)] w = D(e . w) + e . D(w).  With c_alpha = c(e_alpha) for the
    frame sections (signed indices, as in dorfman) and O_alpha = [D, c_alpha]
    = D c_alpha + c_alpha D:

        [D, c(p e_alpha)] w = O_alpha(p w) - c_alpha (D(p w) - p D(w)),

    as c(p e_alpha) = c_alpha p and [D, c_alpha p] = O_alpha p - c_alpha [D, p].
    O_alpha has order <= 1 in the base functions, as D has (see dirac_apply)
    and c_alpha is C-infinity-linear: [O_alpha, g] = {c_alpha, [D, g]}.  So
    O_alpha is read term by term off its table in P._commutator_tables
    (_order_one_apply): O_alpha(e_I) and {c_alpha, [D, x_a]} e_I, filled on
    first use (_commutator_entry) and kept for the life of the pair, at most
    2n 2^n (1 + m) entries in all.  [D, p] = 0 for constant p, so the frame
    family reads the O_alpha tables alone.
    """
    coords, one, total = P.coordinates, {(0,) * len(P.coordinates): 1}, None
    for alpha, p in _frame_parts(e):
        f = Polynomial._raw(coords, p)
        fw = w if p == one else w.scaled(f)
        part = _order_one_apply(fw, P._commutator_tables[alpha])
        if not f.is_constant():
            comm = dirac_apply(P, fw) - dirac_apply(P, w).scaled(f)
            part = part - clifford_act(_frame_section(P, alpha), comm)
        total = part if total is None else total + part
    return Multivector.zero(w.rank, coords) if total is None else total


def _commutator_entry(P: BialgebroidPair, alpha: int, I: Index, a: Optional[int]) -> FrameTerms:
    """The entry at (I, a) of the table of O_alpha = [D, c_alpha]
    (_order_one_entry); [O_alpha, x_a] = {c_alpha, [D, x_a]}.  D is
    dirac_apply and c_alpha clifford_act by the frame section, so a fault in
    either reaches every value _odd_commutator reads."""
    e = _frame_section(P, alpha)

    def commutator(u):
        return dirac_apply(P, clifford_act(e, u)) + clifford_act(e, dirac_apply(P, u))
    return _order_one_entry(P._commutator_tables[alpha], I, a, commutator, P.frame)


def dirac_star_apply(P: BialgebroidPair, theta: Form) -> Form:
    """Mirror operator on forms, d - boundary_* + 1/2 (xi_0 ^ . + iota_{X_0}): D of (A*, A)."""
    return retype(dirac_apply(P.flipped(), retype(theta)))


def dirac_square(P: BialgebroidPair) -> ScalarReport:
    """Decide whether D^2 is multiplication by a function.

    Also checks, for every pair, the unconditional square formula
    D^2 u = (1/2 (L_{X_0} + L_{xi_0}) - Laplacian) u + f~ u; its failure
    would indicate an implementation fault and is reported in
    square_formula_ok rather than swallowed.

    Both run on the products of at most 2 generators x_a, e_i
    (_generator_products), exactly by construction, whether or not the
    formula holds: D^2 - f~ and the formula's defect have order <= 2 over
    wedge A.  In D^2 = 1/2 [D, D] with D = dstar - boundary +
    1/2 (X_0 ^ . + iota_{xi_0}), dstar^2 = 0 and boundary^2 = 0, since both
    halves pass validate_algebroid in BialgebroidPair.__init__ (flipped()
    reuses them) and the boundary is d_A conjugated by the top
    contraction.  Each other term is a commutator of two of dstar,
    iota_{xi_0} (derivations, of order 1), X_0 ^ . (order 0) and the
    boundary (a BV operator, of order 2; Koszul 1985), never the boundary
    with itself, and a commutator's order is at most the sum of the two
    less one, so it has order <= 2; the formula adds the Lie derivatives,
    which are derivations.  An operator Q of order <= 2 satisfies Q(a_0 a_1 a_2) = a signed sum of
    Q(a_S) times the other factors over the proper subsets S, so if Q fails
    at x^gamma e_I, it fails at some x^gamma' e_I' with I' in I,
    gamma' <= gamma and |gamma'| + |I'| <= 2.  The probes are ordered by |I|
    and then by the degree of x^gamma, so that sub-product comes no later:
    both witnesses are the ones that all x^gamma e_I with |gamma| <= 2
    (multivector_probes) would give.

    D(D(u)) is read term by term off P's D table (dirac_apply), the
    formula's Laplacian off P's Laplacian table (laplacian) and its half
    modular Lie derivative off P's modular Lie table (_half_modular_lie),
    all of which outlive the call.  Only the tables' fills take
    differentials, Schouten brackets and Lie derivatives; on warm tables a
    call takes one differential, the boundary of X_0 in f~.
    """
    ft = f_tilde(P)
    report = ScalarReport(is_scalar=True, f_tilde=ft)
    # one D(D(u)) and one f~ u per probe serve both checks, each stopping at its first failure
    for u in _generator_products(P, 2):
        sq, fu = dirac_apply(P, dirac_apply(P, u)), u.scaled(ft)
        if report.square_formula_ok:
            formula = _half_modular_lie(P, u) - laplacian(P, u) + fu
            if sq != formula:
                report.square_formula_ok = False
                report.formula_witness = f"u = {u}; D^2 u = {sq}; formula gives {formula}"
        if report.witness is None:
            report.witness = _square_failure(u, sq, fu)
        if not report.square_formula_ok and report.witness is not None:
            break
    report.is_scalar = report.witness is None
    return report


def _square_failure(u: Multivector, sq: Multivector, fu: Multivector) -> Optional[str]:
    """The witness of D^2 u = sq != f~ u = fu, or None when they agree."""
    residual = sq - fu
    return None if residual.is_zero() else f"u = {u}; D^2 u - f~ u = {residual}"


def _square_witness(P: BialgebroidPair, probes, ft: Polynomial) -> Optional[str]:
    """First failure of D^2 u = f~ u over the probes, or None."""
    for u in probes:
        witness = _square_failure(u, dirac_apply(P, dirac_apply(P, u)), u.scaled(ft))
        if witness is not None:
            return witness
    return None


def dirac_star_square(P: BialgebroidPair) -> ScalarReport:
    """Mirror decision for the operator on forms: dirac_square of (A*, A),
    whose f~ is f~* = 1/2(1/2<xi_0,X_0> - boundary_* xi_0)."""
    report = dirac_square(P.flipped())
    report.witness = _mirror_witness(report.witness)
    report.formula_witness = _mirror_witness(report.formula_witness)
    return report


# -- compatibility and the identity suites ----------------------------------------------


def _derivation_witness(P: BialgebroidPair, op, product, sign: int, names) -> Optional[str]:
    """First failure of op(u v) = op(u) v + sign^(|u|-1) u op(v) over the
    ordered pairs of the generators [x_1..x_m, e_1..e_n] of
    wedge A = Poly[x] (x) Lambda[e], or None, taken on the pairs u <= v in
    that order: g + g(g+1)/2 calls of op and 3 g(g+1)/2 of product, with
    g = m + n.

    product is the wedge or the Schouten bracket P.A.schouten, sign is -1
    for the graded Leibniz rule of dstar over the bracket and +1 for the
    even Laplacian, and names labels the two sides in the witness.  The
    generators decide each identity exactly, because its defect
    T(u, v) = op(u v) - op(u) v - sign^(|u|-1) u op(v) is a graded
    biderivation of the wedge product (Kosmann-Schwarzbach 1995, Exact
    Gerstenhaber algebras and Lie bialgebroids), and a biderivation
    vanishes iff it vanishes on pairs of generators:
    * the Leibniz defect of dstar over the bracket is one, since dstar
      is a wedge derivation and the bracket a biderivation;
    * the wedge defect of the Laplacian Lap = [dstar, boundary] is its
      Koszul bracket, which is a biderivation because Lap has order <= 2
      and Lap(1) = 0;
    * the bracket defect of Lap is one once Lap is a wedge derivation,
      which corollary_suite's Leibniz gate guarantees, since thm-c (a)
      and (i) are equivalent.
    The witness is the one that all pairs of probes x^gamma e_I would
    give first: if T(u, v) != 0, T is nonzero on some pair of generators
    of u and of v, and those come no later in the probe order (x_a before
    x^gamma at I = (), e_i before x^gamma e_i and every |I| >= 2).

    The pairs u > v are skipped with the same witness.  The product is
    graded antisymmetric (the bracket, [v, u] = -(-1)^((|u|-1)(|v|-1))
    [u, v]) or graded commutative (the wedge), and op is linear and
    homogeneous on generators (of degree 1 for dstar, 0 for Lap), so
    T(v, u) = +-T(u, v).  If u > v and T(u, v) != 0, then T(v, u) != 0 and
    (v, u) comes earlier, so the first failing ordered pair has u <= v.
    """
    gens = _generator_products(P, 1)[1:]
    images = [op(g) for g in gens]
    lhs_name, rhs_name = names
    for t, (u, op_u) in enumerate(zip(gens, images)):
        s = sign if u.max_degree() == 0 else 1  # sign^(|u|-1), |u| is 0 or 1
        for v, op_v in zip(gens[t:], images[t:]):
            lhs = op(product(u, v))
            rhs = product(op_u, v) + product(u, op_v).scaled(s)
            if lhs != rhs:
                return f"u = {u}; v = {v}; {lhs_name} = {lhs}; {rhs_name} = {rhs}"
    return None


def is_lie_bialgebroid(P: BialgebroidPair) -> IdentityReport:
    """Decide pair compatibility: dstar must be a derivation of the bracket.

    Checked on the generators x_a, e_i, which decides the condition
    exactly (see _derivation_witness).
    """
    witness = _derivation_witness(P, P.dstar, P.A.schouten, -1, ("dstar[u,v]", "Leibniz side"))
    report = IdentityReport(suite="leibniz")
    report.records.append(IdentityRecord("leibniz-dstar", witness is None, witness))
    return report


def _modular_lie_failure(P: BialgebroidPair, probes) \
        -> Tuple[Optional[Multivector], Optional[str]]:
    """First u with Lap u != 1/2 (L_{X_0} + L_{xi_0}) u and its witness, or
    (None, None)."""
    for u in probes:
        lap, rhs = laplacian(P, u), _half_modular_lie(P, u)
        if lap != rhs:
            return u, f"u = {u}; Lap u = {lap}; half modular Lie = {rhs}"
    return None, None


def _top_lie_coefficient(P: BialgebroidPair):
    """x -> a(x) with L_x Omega = a(x) Omega on the top form, for a degree-1
    x along A (a Multivector) or A* (a Form); L keeps degree.  In closed
    form, from the n constants a(e_i) and a(eps^j) of each side, read off
    P's trace table at (i,) and (-j,) (_trace_entry):

        a(sum_i f_i e_i) = sum_i (f_i a(e_i) + rho(e_i) f_i),
        a(sum_j f_j eps^j) = sum_j (f_j a(eps^j) - rho_*(eps^j) f_j).

    Along A, L is the Cartan formula: L_{f x} Omega = f L_x Omega +
    d f ^ iota_x Omega, and d f ^ iota_x Omega = (rho(x) f) Omega.  Along
    A*, L is the Schouten bracket [theta, .]_*, and [f theta, Omega]_* =
    f [theta, Omega]_* - (rho_*(theta) f) Omega: the sign is minus on this
    side (a plus fails thm-c (c)/(d) on the constant Poisson double).
    """
    coords, table = P.coordinates, P._trace_table
    # the anchor sign of each side, which also signs its frame indices in the table
    sides = {Multivector: (P.A.anchor, 1), Form: (P.Astar.anchor, -1)}

    def a(x) -> Polynomial:
        anchor, sign = sides[type(x)]
        total = Polynomial.zero(coords)
        for (i,), f in x.terms.items():
            total = total + f * table[sign * i,] + apply_field(anchor[i - 1], f, coords) * sign
        return total

    return a


def _defect_trace(P: BialgebroidPair):
    """(a, trace): a = _top_lie_coefficient(P), and trace maps (e, rho(u),
    rho(theta), a(u), a(theta)) to the trace of the defect operator
    top = L_e - (L_u L_theta - L_theta L_u) on wedge A*, where u is a
    degree-1 Multivector, theta a degree-1 Form and e = (u, 0) o (0, theta);
    the caller takes a(u) and a(theta) once per section.  This is the
    direct path: it fills G(e_i, eps^j) in P's trace table and prints a
    failing witness (_trace_and_want); _defect_witness's loop reads the
    trace defect off the table instead (_trace_residual).

    top is an even derivation of wedge A*: L along a section of A is the
    Cartan formula iota_u d + d iota_u, the commutator of two odd
    derivations; L along a section of A* is the Schouten bracket
    [theta, .]_*, an even derivation; and the commutator of two derivations
    is a derivation.  So top keeps degree, and on the top form
    Omega = eps^1 ^ .. ^ eps^n, top(Omega) = sum_j eps^1 ^ .. ^ top(eps^j)
    ^ .. ^ eps^n = (sum_j <top(eps^j), e_j>) Omega for every dual pair,
    whether or not top is tensorial.

    That coefficient comes from functions.  With L_x Omega = a(x) Omega
    (_top_lie_coefficient) and the Leibniz rule L_x(g Omega) =
    g L_x Omega + (rho(x) g) Omega of every L along a degree-1 section,
    L_u L_theta Omega - L_theta L_u Omega = (rho(u) a(theta) -
    rho(theta) a(u)) Omega, the a(u) a(theta) terms cancelling.  So the
    trace is a(e.vec) + a(e.cov) - rho(u) a(theta) + rho(theta) a(u).
    """
    a, coords = _top_lie_coefficient(P), P.coordinates

    def trace(e, rho_u, rho_th, a_u, a_th) -> Polynomial:
        return a(e.vec) + a(e.cov) - apply_field(rho_u, a_th, coords) \
            + apply_field(rho_th, a_u, coords)

    return a, trace


def _trace_and_want(P: BialgebroidPair, u: Multivector, theta: Form) \
        -> Tuple[Polynomial, Polynomial]:
    """The trace T(u, theta) of the (c) defect operator (_defect_trace) and
    2 <d theta, dstar u>, by the direct path: one Dorfman bracket, two
    anchor fields, a(u), a(theta) and one pairing."""
    a, trace_of = _defect_trace(P)
    su, sth = SectionE.of(vec=u), SectionE.of(cov=theta)
    trace = trace_of(dorfman(P, su, sth), rho_field(P, su), rho_field(P, sth), a(u), a(theta))
    return trace, 2 * pairing(P.d(theta), P.dstar(u))


def _trace_residual(P: BialgebroidPair, u: Multivector, theta: Form) -> Polynomial:
    """The (c) trace defect G(u, theta) = T(u, theta) - 2 <d theta, dstar u>
    (T the trace of _defect_trace), for degree-1 u and theta, term by term
    from P's trace table.  With sigma(X, xi) = rho(X) - rho_*(xi),
    rho_i = rho(e_i), rho^j = rho_*(eps^j), E_ij = e_i o eps^j and
    a = _top_lie_coefficient(P):

        G(x^gamma e_i, x^delta eps^j) = x^(gamma+delta) G_ij
            + sum_a gamma_a x^(gamma+delta-1_a) V_ij^a + sum_b delta_b x^(gamma+delta-1_b) W_ij^b
            + sum_{a,b} gamma_a delta_b x^(gamma+delta-1_a-1_b) Z_ij^ab,
        G_ij = G(e_i, eps^j),
        V_ij^a = sigma(E_ij) x_a - [rho_i, rho^j] x_a + delta_ij a(D x_a)
                 - 2 <d eps^j, dstar x_a ^ e_i>,
        W_ij^b = sigma(E_ij) x_b + [rho_i, rho^j] x_b - 2 <d x_b ^ eps^j, dstar e_i>,
        Z_ij^ab = -delta_ij sum_k (rho_*(eps^k)^a rho(e_k)^b + rho(e_k)^a rho_*(eps^k)^b).

    This is exact for any two validated halves, compatible or not, because
    G has order <= 1 in each slot, by the Leibniz rules of the Dorfman
    bracket (see dorfman; Liu-Weinstein-Xu 1997) and of a:
    * a(f x) = f a(x) + sigma(x) f for a section x of the double, with
      a(X, xi) = a(X) + a(xi) (_top_lie_coefficient);
    * from x o (g y) = g (x o y) + (rho(x) g) y, T(u, g theta) =
      g T(u, theta) + sigma(e) g + [rho(u), rho_*(theta)] g: the symbols
      rho(u) rho_*(theta) g of -rho(u) a(g theta) and -rho_*(theta) rho(u) g
      of a((rho(u) g) theta) leave a commutator, of order 1;
    * from (f x) o y = f (x o y) - (rho(y) f) x + 2 <x, y> D f, T(f u, theta)
      = f T(u, theta) + sigma(e) f - [rho(u), rho_*(theta)] f +
      theta(u) a(D f) + sigma(D f) theta(u), and a(D f) = sum_a (d_a f)
      a(D x_a) + sum_a sigma(D x_a)(d_a f), whose last sum vanishes
      identically: sigma(D x_a) x_b = sum_k (rho_*(eps^k)^a rho(e_k)^b -
      rho(e_k)^a rho_*(eps^k)^b) is skew in a, b, and d_a d_b f symmetric;
    * d and dstar are derivations, so 2 <d(g theta), dstar(f u)> =
      2 <g d theta + d g ^ theta, f dstar u + dstar f ^ u>.
    So the second-order symbols cancel, and G(f e_i, g eps^j) is f g G_ij
    plus first-order terms in f and in g, which give V and W, and a mixed
    term sum_{a,b} (d_a f)(d_b g) Z_ij^ab: -2 (rho_i g)(rho^j f) +
    delta_ij sigma(D f) g from T, less 2 <d g ^ eps^j, dstar f ^ e_i> =
    2 delta_ij <d g, dstar f> - 2 (rho_i g)(rho^j f).  The (rho_i g)(rho^j f)
    terms cancel, leaving Z_ij^ab = delta_ij (sigma(D x_a) x_b -
    2 sum_k rho_*(eps^k)^a rho(e_k)^b), the sum above.
    The frame values are filled on first use (_trace_entry) and kept in
    P._trace_table for the life of the pair: at (i, j), G_ij with its
    V_ij^a, W_ij^b and, for i = j, Z_ii^ab (Z vanishes off the diagonal and
    is not read there), at most n^2 entries, and the 2n constants a(e_i),
    a(eps^j) at (i,) and (-j,).  Each table term is shifted in its exponent
    and scaled into one map, as in dorfman.
    """
    table = P._trace_table
    acc: Dict[Index, Dict[Exponent, Fraction]] = {}
    for (i,), p in u.terms.items():
        for (j,), q in theta.terms.items():
            unit, first_u, first_theta, mixed = table[i, j]
            for g, c in p.terms.items():
                for h, d in q.terms.items():
                    cd, s = c if d == 1 else c * d, tuple(map(add, g, h))
                    _shifted_into(acc, unit, s, cd)
                    for b, k in enumerate(h):
                        if k:
                            _shifted_into(acc, first_theta[b], s[:b] + (s[b] - 1,) + s[b + 1:],
                                          cd * k)
                    for a, k in enumerate(g):
                        if not k:
                            continue
                        lower = s[:a] + (s[a] - 1,) + s[a + 1:]
                        _shifted_into(acc, first_u[a], lower, cd * k)
                        for b, l in enumerate(h if mixed else ()):
                            if l:
                                _shifted_into(acc, mixed[a][b],
                                              lower[:b] + (lower[b] - 1,) + lower[b + 1:], cd * k * l)
    return Polynomial._raw(P.coordinates, acc.get((), {}))


def _trace_entry(P: BialgebroidPair, i: int, j: Optional[int] = None):
    """P's trace table entry.  At (alpha,), the constant a(e_alpha) of
    L_{e_alpha} Omega = a(e_alpha) Omega for a signed frame index alpha (i
    for e_i along A, -j for eps^j along A*), by one Lie derivative.  At
    (i, j), the terms of G_ij, of V_ij^a and W_ij^b for each coordinate
    index, and of Z_ij^ab for i = j (() for i != j), each as a degree-0
    element (_trace_residual).  G_ij is taken by the direct path
    (_trace_and_want), the others in closed form: from E_ij and the
    D x_a = dstar x_a + d x_a on the Dorfman table, the anchors, a, and
    d eps^j and dstar e_i, paired with dstar x_a ^ e_i and d x_b ^ eps^j."""
    if j is None:
        side, x = (P.A, P.basis_e(i)) if i > 0 else (P.Astar, P.basis_eps(-i))
        return side.lie_derivative(x, P.frame.omega).coefficient(P.frame.top_index)
    coords, rows, dual_rows = P.coordinates, P.A.anchor, P.Astar.anchor
    rho_i, rho_j = rows[i - 1], dual_rows[j - 1]

    def scalar(value: Polynomial) -> FrameTerms:
        return (((), value.terms),) if value else ()

    def paired(two: Dict[Index, Polynomial], one, k: int) -> Polynomial:
        """2 <two, one ^ e_k> (or 2 <two, one ^ eps_k>) for the terms of a
        degree-2 element and the (index, terms) parts of a degree-1 one."""
        total = Polynomial.zero(coords)
        for K, terms in one:
            hit = _merge_sign((K,), (k,))
            if hit and hit[1] in two:
                total = total + two[hit[1]] * Polynomial._raw(coords, terms) * (2 * hit[0])
        return total

    trace, want = _trace_and_want(P, P.basis_e(i), P.basis_eps(j))
    d_eps_j, dstar_e_i = P.d(P.basis_eps(j)).terms, P.dstar(P.basis_e(i)).terms
    top = _top_lie_coefficient(P) if i == j else None
    first_u, first_theta = [], []
    for c in range(len(coords)):
        sigma = Polynomial.zero(coords)
        for k, terms in P._dorfman_table[i, -j]:
            row, sign = (rows[k - 1], 1) if k > 0 else (dual_rows[-k - 1], -1)
            if row[c]:
                sigma = sigma + Polynomial._raw(coords, terms) * row[c] * sign
        commutator = apply_field(rho_i, rho_j[c], coords) - apply_field(rho_j, rho_i[c], coords)
        dx = P._dorfman_table[None, c]
        v = sigma - commutator - paired(d_eps_j, [(K, t) for K, t in dx if K > 0], i)
        if top is not None:
            D = dee(P, Polynomial.variable(coords, coords[c]))
            v = v + top(D.vec) + top(D.cov)
        first_u.append(scalar(v))
        first_theta.append(scalar(sigma + commutator - paired(
            dstar_e_i, [(-K, t) for K, t in dx if K < 0], j)))
    mixed = ()
    if i == j:
        mixed = tuple(tuple(scalar(sum((-dual[a] * row[b] - row[a] * dual[b]
                                        for row, dual in zip(rows, dual_rows)),
                                       Polynomial.zero(coords)))
                            for b in range(len(coords))) for a in range(len(coords)))
    return scalar(trace - want), tuple(first_u), tuple(first_theta), mixed


def _defect_witness(P: BialgebroidPair) -> Optional[str]:
    """First failure of (c): the commutator defect of (u, 0) o (0, theta)
    acting on forms is tensorial with trace 2 <d theta, dstar u>.

    The defect operator is top = L_e - (L_u L_theta - L_theta L_u) with
    e = (u, 0) o (0, theta).  Its trace T is a function read off Lie
    derivatives of the top form alone (see _defect_trace), and the trace
    defect G = T - 2 <d theta, dstar u> off P's trace table
    (_trace_residual), in closed form from its frame values and
    first-order terms.  So on a passing pair the loop takes no Dorfman
    bracket, a(.), anchor field, pairing or Lie derivative: T and
    2 <d theta, dstar u> are taken by the direct path (_trace_and_want) for
    the first pair with G != 0 alone, to print its witness.

    Tensoriality is read off the anchor field, with no
    evaluation of top on f eta: every L along a degree-1 section satisfies
    L_x(f eta) = f L_x eta + (rho(x) f) eta, and in the commutator the
    cross terms (rho(u) f) L_theta eta and (rho(theta) f) L_u eta cancel.
    So top(f eta) - f top(eta) = X(f) eta with the vector field
    X = rho(e) - [rho(u), rho(theta)], the Courant anchor defect of
    ((u, 0), (0, theta)) that courant/g2 tests, read off P's defect table
    (_anchor_defect_field).  X is a
    derivation in f, which vanishes for every polynomial f iff
    X(x_a) = X^a vanishes for every a, and for every eta iff it does for
    eta = eps^1.  The x_a come first among the monomials and eps^1 first
    among the eps^j, so the witness, which names x_a for the first a with
    X^a != 0 and eps^1, is the one that all f with |gamma| <= 2 and all
    eps^j would give.

    The pair (u, theta) runs over the x^gamma e_i and x^gamma eps^j with
    |gamma| <= 1, for each u each theta, X tested before G, because both
    parts of the defect have order <= 1 in each slot (and not 0, so the
    frame alone would not do):
    * X(u, theta) is the Courant anchor defect A((u, 0), (0, theta)), which
      is C-infinity-linear in theta, and X(f u, theta) = f X(u, theta) +
      <theta, u> rho(D f) (see courant_axioms);
    * G(f u, theta) - f G and G(u, f theta) - f G are first order in f and
      zero at f = 1, because the second-order symbols cancel: in either
      slot rho(u) rho_*(theta) f against rho_*(theta) rho(u) f, leaving
      -+[rho(u), rho_*(theta)] f, and sum_a sigma(D x_a)(d_a f) = 0
      identically, as sigma(D x_a) x_b is skew in a, b (the full
      expansion is in _trace_residual).
    An operator Q of order <= 1 in a slot satisfies Q(x_a x_b s) =
    x_a Q(x_b s) + x_b Q(x_a s) - x_a x_b Q(s), and x_b s, x_a s and s come
    before x_a x_b s in the probe order (by i, then the degree of x^gamma).
    So the first failing pair of all sections with |gamma| <= 2 has
    |gamma| <= 1 in both slots, and the witness is the one that family
    would give.
    """
    deg1_form = degree1_form_probes(P, 1)
    form_sections = [SectionE.of(cov=th) for th in deg1_form]
    for u in degree1_multivector_probes(P, 1):
        su = SectionE.of(vec=u)
        for th, sth in zip(deg1_form, form_sections):
            a = _first_component(_anchor_defect_field(P, su, sth))
            if a is not None:
                return (f"u = {u}; theta = {th}; defect operator is not "
                        f"tensorial on ({P.coordinates[a]}) eps[1]")
            if _trace_residual(P, u, th):
                trace, want = _trace_and_want(P, u, th)
                return f"u = {u}; theta = {th}; trace = {trace}; 2<dstar u, d theta> = {want}"
    return None


def _theorem_c_primal(P: BialgebroidPair) -> Dict[str, Optional[str]]:
    """Witnesses (None on success) of the A-side items a, i, k, c, e.

    (a) graded Leibniz for dstar and (i) the Laplacian is a wedge
    derivation, both checked on the generators x_a, e_i (see
    _derivation_witness); (k) the Laplacian is half the sum of the modular
    Lie derivatives, and (e) is (k) on functions and degree-1 sections;
    (c) the commutator-defect operator is tensorial, checked on sections
    with |gamma| <= 1 and on f = x_a, and has the stated trace, read off its
    value on the top form (see _defect_witness).  The (k) defect
    Lap - 1/2 (L_{X_0} + L_{xi_0}) has order <= 2 over wedge A, so it runs
    on the products of at most 2 generators, with the witness that all
    x^gamma e_I with |gamma| <= 2 would give (see dirac_square).  (e)
    fails exactly when the first failure of (k) on that full family has
    degree <= 1, and that failure is then (k)'s witness here too, so (e)
    needs no scan of its own.
    """
    lap = functools.partial(laplacian, P)
    k_probe, k_wit = _modular_lie_failure(P, _generator_products(P, 2))
    return {
        "a": _derivation_witness(P, P.dstar, P.A.schouten, -1, ("dstar[u,v]", "Leibniz side")),
        "i": _derivation_witness(P, lap, Multivector.wedge, 1, ("Lap(u^v)", "derivation side")),
        "k": k_wit,
        "c": _defect_witness(P),
        "e": k_wit if k_probe is not None and k_probe.max_degree() <= 1 else None,
    }


def _pairing_witnesses(P: BialgebroidPair) -> Tuple[Optional[str], Optional[str]]:
    """Witnesses of (g) and (h), which share the pairing side.

    Both run on the x^gamma e_i and x^gamma eps^j with |gamma| <= 1.  The
    defect G(u, theta) = Lap<theta,u> - <Lap theta, u> - <theta, Lap u>,
    with the function Laplacian of either side, has order <= 1 in each
    slot: each Laplacian has order <= 2 (see PROBE_DEGREE), so for functions
    g1, g2 the double commutator [[Lap, g1], g2] is multiplication by its
    Koszul bracket {g1, g2}, and [[G, g1], g2] = ({g1, g2} - {g1, g2}')
    <theta, u> in either slot, where {.,.} and {.,.}' belong to the
    Laplacian on functions and to the one on the slot.  Both Laplacians
    have the same Koszul bracket, -(<d g1, dstar g2> + <d g2, dstar g1>),
    so that is 0.  An operator of order <= 1 in a slot fails on
    x_a x_b s only if it fails on x_b s, x_a s or s, which come earlier in
    the probe order, so each witness is the one that all sections with
    |gamma| <= 2 would give (as in _defect_witness).

    <theta, u> is a combination of monomials x^gamma with |gamma| <= 2 and
    each function Laplacian is linear, so both are taken once per monomial
    in a call and combined: at most 2 (m + 2 choose 2) degree-0 Laplacians.
    """
    wit_g = wit_h = None
    lap = functools.partial(laplacian, P)
    coords = P.coordinates
    monomial_laps: Dict[Exponent, Tuple[Polynomial, Polynomial]] = {}

    def function_laps(h: Polynomial) -> Tuple[Polynomial, Polynomial]:
        lap_g = lap_h = Polynomial.zero(coords)
        for e, c in h.terms.items():
            laps = monomial_laps.get(e)
            if laps is None:
                x_e = Polynomial._raw(coords, {e: Fraction(1)})
                laps = monomial_laps[e] = (lap(P.scalar_form(x_e)).scalar_part(),
                                           lap(P.scalar_mv(x_e)).scalar_part())
            lap_g, lap_h = lap_g + laps[0] * c, lap_h + laps[1] * c
        return lap_g, lap_h

    deg1_mv = degree1_multivector_probes(P, 1)
    lap_mv = [lap(u) for u in deg1_mv]
    for th in degree1_form_probes(P, 1):
        if wit_g and wit_h:
            break
        lap_th = lap(th)
        for u, lap_u in zip(deg1_mv, lap_mv):
            rhs = pairing(lap_th, u) + pairing(th, lap_u)
            lhs_g, lhs_h = function_laps(pairing(th, u))
            if lhs_g != rhs and wit_g is None:
                wit_g = f"theta = {th}; u = {u}; Lap*<theta,u> = {lhs_g}; pairing side = {rhs}"
            if lhs_h != rhs and wit_h is None:
                wit_h = f"theta = {th}; u = {u}; Lap<theta,u> = {lhs_h}; pairing side = {rhs}"
            if wit_g and wit_h:
                break
    return wit_g, wit_h


_MIRROR_ID = {"a": "b", "i": "j", "k": "l", "c": "d", "e": "f"}


def theorem_c_suite(P: BialgebroidPair) -> IdentityReport:
    """All twelve equivalence-suite assertions, ids thm-c/a .. thm-c/l.

    The A-side items a, i, k, c, e run on P; their mirrors b, j, l, d, f
    are the same checks on P.flipped().  (g) and (h) run as one loop.
    """
    primal = _theorem_c_primal(P)
    mirror = {_MIRROR_ID[k]: _mirror_witness(w)
              for k, w in _theorem_c_primal(P.flipped()).items()}
    wit_g, wit_h = _pairing_witnesses(P)
    found = {**primal, **mirror, "g": wit_g, "h": wit_h}
    report = IdentityReport(suite="theorem-c")
    for x in "abijklghcdef":
        report.records.append(IdentityRecord(f"thm-c/{x}", found[x] is None, found[x]))
    return report


def corollary_suite(P: BialgebroidPair) -> IdentityReport:
    """Modular-cocycle corollaries; requires the pair to be compatible."""
    gate = is_lie_bialgebroid(P)
    if not gate.passed:
        raise PreconditionError(
            f"corollary suite needs a Lie bialgebroid; {gate.records[0].witness}")
    mod = P.modular
    report = IdentityReport(suite="corollaries")
    add = report.records.append
    coords = P.coordinates

    lie = {}  # top element -> (L_X0 top, L_xi0 top), read again by q and r
    for rid, name, top in (("m", "V", P.frame.vee), ("n", "Omega", P.frame.omega)):
        lx, lxi = P.A.lie_derivative(mod.x0, top), P.Astar.lie_derivative(mod.xi0, top)
        lie[name] = lx, lxi
        ok = lx == -lxi
        add(IdentityRecord(f"cor-blistering/{rid}", ok,
                           None if ok else f"L_X0 {name} = {lx}; -L_xi0 {name} = {-lxi}"))

    bs_xi = P.boundary_star(mod.xi0).scalar_part()
    b_x = P.boundary(mod.x0).scalar_part()
    ok = bs_xi == b_x
    add(IdentityRecord("cor-blistering/o", ok,
                       None if ok else f"boundary_* xi0 = {bs_xi}; boundary X0 = {b_x}"))

    div_x = divergence(P.A.anchor_field(mod.x0), coords)
    div_xi = divergence(P.Astar.anchor_field(mod.xi0), coords)
    ok = div_x == div_xi
    add(IdentityRecord("cor-blistering/p", ok,
                       None if ok else f"L_X0 s / s = {div_x}; L_xi0 s / s = {div_xi}"))

    # derivation of the Gerstenhaber structure by the Laplacian
    lap = functools.partial(laplacian, P)
    wit = _derivation_witness(P, lap, Multivector.wedge, 1, ("Lap(u^v)", "derivation side"))
    add(IdentityRecord("cor-brood/g14", wit is None, wit))
    wit = _derivation_witness(P, lap, P.A.schouten, 1, ("Lap[u,v]", "derivation side"))
    add(IdentityRecord("cor-brood/g15", wit is None, wit))

    ft4 = f_tilde(P) * 4
    lhs_q = lie["Omega"][0].coefficient(P.frame.top_index) + div_x
    ok = lhs_q == ft4
    add(IdentityRecord("cor-commissoner/q", ok,
                       None if ok else f"L_X0 (Omega (x) s) / (Omega (x) s) = {lhs_q}; 4 f~ = {ft4}"))

    lhs_r = div_xi + lie["V"][1].coefficient(P.frame.top_index)
    ok = lhs_r == ft4
    add(IdentityRecord("cor-commissoner/r", ok,
                       None if ok else f"L_xi0 (s (x) V) / (s (x) V) = {lhs_r}; 4 f~ = {ft4}"))

    # base Poisson structure pi = a_*^T a and its modular field; for a Lie
    # bialgebroid pi is skew (Mackenzie-Xu 1994), and the corollary gate
    # admits nothing else, so the skew witness is a guard
    base_pi = matrix_product(list(zip(*P.Astar.anchor)), P.A.anchor, coords)
    asym = first_non_skew(base_pi)
    wit = None if asym is None else \
        f"induced base bivector is not skew at ({asym[0] + 1},{asym[1] + 1})"
    if wit is None:
        a_xi = P.Astar.anchor_field(mod.xi0)
        a_x = P.A.anchor_field(mod.x0)
        for j, row in enumerate(base_pi):
            lhs, rhs = divergence(row, coords), (a_xi[j] - a_x[j]) * Fraction(1, 2)
            if lhs != rhs:
                wit = (f"component {j + 1}: divergence side = {lhs}; "
                       f"half anchor difference = {rhs}")
                break
    add(IdentityRecord("cor-extremal/xs", wit is None, wit))

    return report


def _double_sections(P: BialgebroidPair, coord_degree: int) -> List[SectionE]:
    """x^gamma e_i and x^gamma eps^i with |gamma| <= coord_degree, for i = 1..n in turn."""
    monos = coordinate_monomials(P.coordinates, coord_degree)
    return [s for i in range(1, P.rank + 1) for f in monos
            for s in (SectionE.of(vec=P.basis_e(i).scaled(f)),
                      SectionE.of(cov=P.basis_eps(i).scaled(f)))]


def _anchor_witness(P: BialgebroidPair, frame_fields=None) -> Optional[str]:
    """First failure of 2 <D f, x> = rho(x) f, or None.  Both sides are
    C-infinity-linear in x and derivations in f, so f runs over the
    coordinates x_a and x over the frame; rho(x) x_a is component a of the
    anchor field of x, built once per frame section unless the caller
    passes the (x, rho x) of the frame it has built already."""
    if frame_fields is None:
        frame_fields = [(x, rho_field(P, x)) for x in _double_sections(P, 0)]
    for a, f in enumerate(coordinate_monomials(P.coordinates, 1)[1:]):
        df = dee(P, f)
        for x, rho_x in frame_fields:
            lhs, rhs = metric(df, x) * 2, rho_x[a]
            if lhs != rhs:
                return f"f = {f}; x = {x}; 2<Df,x> = {lhs}; rho(x)f = {rhs}"
    return None


def courant_axioms(P: BialgebroidPair) -> IdentityReport:
    """The six Courant axioms of the double A + A* and the anchor-D duality
    relation, each decided exactly on the smallest family its order allows.

    A Lie bialgebroid is exactly a pair whose double is a Courant algebroid
    (Liu-Weinstein-Xu 1997), so this suite passes iff dirac_square does.
    Write F for the frame e_i, eps^i, N for F together with the x_a e_i,
    x_a eps^i, and X for the coordinates x_a.  For the Dorfman bracket o of
    any dual pair, with the anchor defect A(x, y) = rho(x o y) - [rho x,
    rho y] and the Jacobiator J(x, y, z) = x o (y o z) - (x o y) o z -
    y o (x o z):
    * g3, g4 and g6 hold identically; F x F x X, F^2 and F^3 guard the
      implementation.  On F, <x, y> is 0 or 1/2, so D<x, y> = 0 and
      rho(x)<y, z> = 0: g4 reads x o y + y o x = 0 and g6 reads
      <x o y, z> + <y, x o z> = 0.  g3 reads rho(x) x_a as component a of
      the anchor field of x, built once per frame section.  g3 and g4 read
      the 4 n^2 frame brackets x o y off one list, taken once per call;
    * A(x, f y) = f A(x, y) by g3: A is C-infinity-linear in y;
    * A(g x, y) = g A(x, y) + 2 <x, y> rho(D g), and rho(D g) =
      sum_a (d_a g) rho(D x_a), so A vanishes iff it does on N x F (g2).
      g2 reads A off P's defect table (_anchor_defect_field), which holds
      A on F x F and the rho(D x_a); rho(x o y), [rho x, rho y] and the
      fields of the near sections are built only for the witness;
    * <D f o x, z> = 1/2 A(x, z) f, so D f o x vanishes for every f and x
      iff A does, and A(x, z) is a vector field, seen on the x_a: g5 runs
      on X x N and holds exactly when g2 does;
    * J(x, y, f z) = f J(x, y, z) - A(x, y)(f) z;
    * on F, <x, y> is constant, so D<x, y> = 0 and rho(x)<y, z> = 0.  Then
      g4 gives J(x, y, z) + J(y, x, z) = -2 D<x, y> o z = 0, and g4 with g6
      gives J(x, y, z) + J(x, z, y) = x o 2 D<y, z> - 2 D(rho(x)<y, z>) = 0.
      So J is totally skew on F^3 for every dual pair, whether or not g2
      holds: it vanishes on a triple with a repeated section, and the first
      failing triple of F^3 (in product order) is sorted, since its sorted
      permutation fails too and comes no later.  g1 runs on the C(2n, 3)
      sorted triples of distinct frame sections;
    * when A = 0, J is totally skew everywhere (by g4, g5 and g6), so by
      the J(x, y, f z) line it is C-infinity-trilinear and g1 holds iff it
      holds on F^3.  When g2 fails at (x, y), pick x_a with
      A(x, y)(x_a) != 0: J(x, y, z) or J(x, y, x_a z) is nonzero for
      z = F[0], so g1 fails too, and if F^3 holds that triple is its
      witness.
    The anchor relation is C-infinity-linear in x and a derivation in f,
    so it runs on X x F (see _anchor_witness).  Over a point X is empty,
    N = F, and only g1 can fail.
    """
    coords = coordinate_monomials(P.coordinates, 1)[1:]
    near = _double_sections(P, 1)
    # the frame opens each block of the 2 (1 + m) near sections of one index i
    step = 2 * (1 + len(coords))
    frame = [x for b in range(0, len(near), step) for x in near[b:b + 2]]
    frame_fields = [(x, rho_field(P, x)) for x in frame]
    report = IdentityReport(suite="courant")
    add = report.records.append
    bracket = functools.partial(dorfman, P)

    def jacobiator(x, y, z):
        return bracket(x, bracket(y, z)) - bracket(bracket(x, y), z) - bracket(y, bracket(x, z))

    wit2 = defect = None
    for x, y in itertools.product(near, frame):
        a = _first_component(_anchor_defect_field(P, x, y))
        if a is not None:
            lhs, rhs = _anchor_defect(P, rho_field(P, x), rho_field(P, y), bracket(x, y))
            wit2 = (f"x = {x}; y = {y}; rho(x o y) = {tuple(map(str, lhs))}; "
                    f"[rho x, rho y] = {tuple(map(str, rhs))}")
            defect = x, y, a
            break

    wit = next((f"x = {x}; y = {y}; z = {z}" for x, y, z in itertools.combinations(frame, 3)
                if not jacobiator(x, y, z).is_zero()), None)
    if wit is None and defect is not None:
        x, y, a = defect
        z = next(z for z in (frame[0], frame[0].scaled(coords[a]))
                 if not jacobiator(x, y, z).is_zero())
        wit = f"x = {x}; y = {y}; z = {z}"
    add(IdentityRecord("courant/g1", wit is None, wit))
    add(IdentityRecord("courant/g2", wit2 is None, wit2))

    o = [[bracket(x, y) for y in frame] for x in frame]
    wit = None
    for ((x, rho_x), o_x), (t, y), (a, f) in itertools.product(
            zip(frame_fields, o), enumerate(frame), enumerate(coords)):
        if bracket(x, y.scaled(f)) != o_x[t].scaled(f) + y.scaled(rho_x[a]):
            wit = f"x = {x}; y = {y}; f = {f}"
            break
    add(IdentityRecord("courant/g3", wit is None, wit))

    wit = None
    for (s, x), (t, y) in itertools.product(enumerate(frame), repeat=2):
        lhs = o[s][t] + o[t][s]
        if not lhs.is_zero():
            wit = f"x = {x}; y = {y}; x o y + y o x = {lhs}; 2 D<x,y> = 0 (+) 0"
            break
    add(IdentityRecord("courant/g4", wit is None, wit))

    wit = None
    for (f, df), x in itertools.product([(f, dee(P, f)) for f in coords], near):
        out = bracket(df, x)
        if not out.is_zero():
            wit = f"f = {f}; x = {x}; Df o x = {out}"
            break
    add(IdentityRecord("courant/g5", wit is None, wit))

    wit = None
    for x, y, z in itertools.product(frame, repeat=3):
        rhs = metric(bracket(x, y), z) + metric(y, bracket(x, z))
        if not rhs.is_zero():
            wit = f"x = {x}; y = {y}; z = {z}; rho(x)<y,z> = 0; bracket side = {rhs}"
            break
    add(IdentityRecord("courant/g6", wit is None, wit))

    wit = _anchor_witness(P, frame_fields)
    add(IdentityRecord("courant/anchor", wit is None, wit))

    return report


def generator_check(P: BialgebroidPair) -> IdentityReport:
    """Generating-operator conditions for D on the spinor module wedge A.

    Checks, on exact families: [D, f] is the Clifford action c(D f); the
    derived bracket [[D, c(e1)], c(e2)] is c(e1 o e2) for the Dorfman
    bracket o; D^2 is multiplication by a function; and the anchor is
    recovered from 2 <D f, e> = rho(e) f.

    The first identity runs over the coordinates x_a only.  K(f) = [D, f]
    - c(D f) satisfies K(f g) = K(f) g + f K(g) as operators: [D, f g] =
    [D, f] g + f [D, g] for any D, D(f g) = g D f + f D g, and the Clifford
    action c is linear over functions.  With K(1) = 0, induction on the
    monomials gives K = 0 on every polynomial exactly when K(x_a) = 0 for
    each a.  The x_a follow 1 in the order of the full family |gamma| <= 2,
    and K(1) never fails, so the witness is the one that family finds.  Its
    spinor w runs over 1 and the generators x_a, e_i: K(f) has order <= 1
    over wedge A ([D, f] lowers the order 2 of D by one, (D f).vec ^ . has
    order 0, iota_{(D f).cov} is a derivation), so a failure at x^gamma e_I
    shows at 1 or at a generator factor, which comes no later: the witness
    is again that of all x^gamma e_I with |gamma| <= 1.  D is read off the
    pair's D table (dirac_apply), so on w = x_b the record reads
    [D, x_a] x_b = x_b [D, x_a] 1 off the table's [D, x_a] entry.
    The anchor relation A(e, f) = 2 <D f, e> - rho(e) f runs on the x_a
    and the frame (see _anchor_witness).

    The derived-bracket defect B(e1, e2) = [[D, c(e1)], c(e2)] - c(e1 o e2)
    obeys, for every function f,
    * B(f e1, e2) = f B + [K(f) c(e1), c(e2)] - A(e2, f) c(e1),
    * B(e1, f e2) = f B + {K(f), c(e1)} c(e2) + A(e1, f) c(e2),
    * [B(e1, e2), f] = [{K(f), c(e1)}, c(e2)],
    using (f e1) o e2 = f (e1 o e2) - (rho(e2) f) e1 + 2 <e1, e2> D f and
    e1 o (f e2) = f (e1 o e2) + (rho(e1) f) e2.  So once the first two
    records pass, K = 0 and A = 0 make B C-infinity-linear in all three
    slots, and it vanishes iff it vanishes on the frame e_i, eps^i in each
    section slot and on the constant spinors e_I.  Otherwise both sides
    have order <= 1 in each section slot and in the spinor slot, and the
    record runs on the x^gamma e_i, x^gamma eps^i and x^gamma e_I with
    |gamma| <= 1, which is exact for that reason.  The witness is the same
    either way: in those families each x_a s comes after s, so under
    trilinearity a failing triple (g s1, h s2, k w) with g, h, k in
    {1, x_a} has the failing frame triple (s1, s2, w) no later in the loop
    order, and the first failure of the larger family lies in the smaller.
    Over a point the two families coincide.

    On the frame only the C(2n, 2) pairs with e1 after e2 run, as B is
    skew there for any odd D: by super-Jacobi [[D, c1], c2] + [[D, c2], c1]
    = [D, 2 <e1, e2>] = 0, and e1 o e2 + e2 o e1 = 2 D<e1, e2> = 0 (g4).
    So B(e, e) = 0, failures come in pairs, and the first failing (e2, e1,
    w) of the full loop has e1 after e2.  The order-1 families, where
    <x_a e_i, eps^i> is not constant, run in full.  [D, c(e1)] is read off
    the pair's commutator tables by the Leibniz rule [D, c(p e_alpha)] =
    [D, c_alpha] p - c_alpha [D, p], where [D, c_alpha] has order <= 1 in
    the base functions like D (_odd_commutator).  [D, c(e1)] w is read once
    per (e1, w), ahead of the e2 loop.

    On the frame the spinor w runs over 1, e_1, ..., e_n alone, once a
    certificate passes (_odd_clifford_degree_at_most_3), and over all e_I
    when it fails.  The argument:
    * K = 0 gives [D, f] = c(D f), so Theta = D - sum_a c(D x_a) d/dx_a is
      C-infinity-linear, and D(e_K) = Theta(e_K) on constant spinors.
    * On constant frame sections the derivative part drops out of the
      double commutator: [c(s) d/dx_a, c_alpha] = 2 <s, e_alpha> d/dx_a,
      which commutes with c_beta.  So B(e_alpha, e_beta) = [[Theta,
      c_alpha], c_beta] - c(e_alpha o e_beta).
    * If Theta is odd of degree <= 3, the anticommutator with c_alpha is
      even of degree <= 2 and the commutator with c_beta odd of degree
      <= 1, so B = c(b) for one section b.
    * B 1 = b.vec and B e_i = b.vec ^ e_i + <b.cov, e_i>.  So B vanishes
      iff it vanishes on 1 and on every e_i.
    * Spinors are ordered by |I| first, so the first failing (e2, e1, w) of
      the full loop has w in {1, e_i}: the witness is unchanged.
    The certificate reads Theta in normal order off every D(e_K), |K| >= 4
    included, and asks that each term has odd total degree |I| + |J| <= 3.
    No weaker check is enough.  Theta = e_1 ^ iota_{eps^{1234}} of rank 4
    vanishes on every e_K with |K| <= 3, so a scan of those passes it, yet
    B first fails at w = e[2,3,4].  Theta = e_1 e_2 ^ iota_{eps^{345}} of
    rank 5 contracts only three times, yet has degree 5, and B first fails
    at w = e[3,4,5].  Theta = iota_{eps^{23}} of rank 4 has degree 2, but
    it is even, and its anticommutator with c_alpha need not lower the
    degree: B(eps^1, e_1) is even of degrees 2 and 4, vanishes on 1 and
    on every e_i, and the full family first fails there at w = e[2,3].
    A D built by the package passes by construction: it is a derivative
    part plus an odd Clifford element of degree <= 3 (Alekseev-Xu,
    "Derived brackets and Courant algebroids"; Roytenberg 2002).
    """
    report = IdentityReport(suite="generator")
    add = report.records.append

    w_probes = _generator_products(P, 1)

    wit = None
    for f in coordinate_monomials(P.coordinates, 1)[1:]:
        if wit:
            break
        df = dee(P, f)
        for w in w_probes:
            lhs = dirac_apply(P, w.scaled(f)) - dirac_apply(P, w).scaled(f)
            rhs = clifford_act(df, w)
            if lhs != rhs:
                wit = f"f = {f}; w = {w}; [D, f] w = {lhs}; Clifford(D f) w = {rhs}"
                break
    add(IdentityRecord("generator/commutator-function", wit is None, wit))

    anchor = _anchor_witness(P)
    # K = 0 and A = 0 make the derived-bracket defect trilinear (see above)
    degree = 0 if wit is None and anchor is None else 1
    e_probes = _double_sections(P, degree)
    # on the frame and for Theta odd of degree <= 3, B = c(b) shows on 1 and the e_i (see above)
    spinors = _graded_probes(P, 0, 1) if degree == 0 and _odd_clifford_degree_at_most_3(P) \
        else multivector_probes(P, degree)

    def bracket_failures():
        o1 = [[_odd_commutator(P, e1, w) for w in spinors] for e1 in e_probes]
        for j, e2 in enumerate(e_probes):
            c2 = [clifford_act(e2, w) for w in spinors]
            # on the frame B is skew, so e1 runs over the sections after e2 (see above)
            first = j + 1 if degree == 0 else 0
            for e1, o1e1 in zip(e_probes[first:], o1[first:]):
                target = dorfman(P, e1, e2)
                for w, c2w, o1w in zip(spinors, c2, o1e1):
                    # [[D,e1],e2] w = [D,e1](e2 . w) - e2 . [D,e1] w
                    lhs = _odd_commutator(P, e1, c2w) - clifford_act(e2, o1w)
                    rhs = clifford_act(target, w)
                    if lhs != rhs:
                        yield (f"e1 = {e1}; e2 = {e2}; w = {w}; "
                               f"[[D,e1],e2] w = {lhs}; Clifford(e1 o e2) w = {rhs}")

    wit = next(bracket_failures(), None)
    add(IdentityRecord("generator/derived-bracket", wit is None, wit))

    # D^2 - f~ has order <= 2 over wedge A by construction (see dirac_square)
    wit = _square_witness(P, _generator_products(P, 2), f_tilde(P))
    add(IdentityRecord("generator/square-scalar", wit is None, wit))

    add(IdentityRecord("generator/anchor", anchor is None, anchor))

    return report


def _odd_clifford_degree_at_most_3(P: BialgebroidPair) -> bool:
    """Whether the C-infinity-linear part Theta of D (generator_check; it
    needs [D, f] = c(D f)) is odd of Clifford degree <= 3.

    In normal order Theta = sum_J a_J ^ iota_{eps^J} with a_J = sum_I
    a_{I,J} e_I, and Theta(e_K) = D(e_K) on constant spinors.  Only J
    inside K contract e_K, so taking K by |K|,

        r_K = D(e_K) - sum_{J < K} a_J ^ iota_{eps^J} e_K = a_K ^ iota_{eps^K} e_K = a_K,

    as iota_{eps^K} e_K = 1.  Theta is odd of degree <= 3 iff |I| + |K| is
    1 or 3 for every nonzero term of every r_K, |K| >= 4 included; the scan
    stops at the first term that is not.  Each D(e_K) is one dirac_apply."""
    rank, coords = P.rank, P.coordinates
    one = Polynomial.const(coords, 1)
    normal: Dict[Index, Dict[Index, Polynomial]] = {}
    for size in range(rank + 1):
        for K in itertools.combinations(range(1, rank + 1), size):
            r = dict(dirac_apply(P, Multivector.monomial(rank, coords, K, one)).terms)
            for J, a in normal.items():
                hit = _contract_sign(J, K)
                if hit is None:
                    continue
                for I, p in a.items():
                    merged = _merge_sign(I, hit[1])
                    if merged is not None:
                        _accumulate(r, merged[1], -p if hit[0] * merged[0] > 0 else p)
            if any(len(I) + size not in (1, 3) for I in r):
                return False
            if r:
                normal[K] = r
    return True
