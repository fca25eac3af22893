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
in dirac_square).  dirac_square and generator_check share the scalar
scan (_square_witness); only dirac_square also checks the square formula.

The compatibility criterion (the derivation property of dstar over the
bracket), the twelve-part equivalence suite, the corollary identities,
the Courant axioms of the double, and the generating-operator conditions
are each exposed as report-producing functions with polynomial witnesses
on failure.

Derivation identities on generators.  The Leibniz rule of dstar over the
bracket (is_lie_bialgebroid, thm-c (a)) and the Laplacian as a derivation
of the wedge product (thm-c (i), g14) and of the bracket (g15) run through
one loop, _derivation_witness, on the pairs of generators x_a, e_i
instead of all pairs of probes; the argument is in its docstring.
courant_axioms likewise decides each Courant axiom of the double on the
smallest section family the order of its defect allows: the frame, the
frame with its x_a multiples, and the coordinates x_a.  generator_check
decides the derived bracket [[D, c(e1)], c(e2)] = c(e1 o e2) on the frame
in both section slots and on the constant spinors e_I once [D, f] = c(D f)
and the anchor relation hold, since these make its defect
C-infinity-trilinear, and on the order-1 families otherwise; the argument
is in its docstring.

Mirrors by duality.  Each formula is written once.  A formula about one
algebroid is written over AlgebroidStructure, whose section_kind picks
Multivector or Form sections: the modular cocycle (_modular_class, run
on A for xi_0 and on A* for X_0) and the Lie derivative
(AlgebroidStructure.lie_derivative, along A or along A*).  A formula
about the pair is written for (A, A*) and mirrored through
BialgebroidPair.flipped(), since (A, A*) is a Lie bialgebroid exactly
when (A*, A) is (Mackenzie-Xu): the same frame with A*'s data as the
vector side and A's as the covector side, elements moved across by the
zero-copy exterior.retype.  The mirror operator on forms, f~*, the
'Astar' Laplacian and the items (b), (d), (f), (j), (l) of the
equivalence suite have no code of their own.  A mirror witness is the
primal witness found on the flipped pair, so it names flipped elements
(e[i] there is eps^i here) and carries the prefix "on (A*, A): ".

Each operator once per monomial.  Every decision and report that loops
operators over probes runs on _once_per_monomial_view(P), the one place
that decides what a call shares: there both differentials and both
boundaries run once per monomial x^gamma e_I met in the call, so D, the
Laplacians, the Lie derivatives and the Dorfman bracket read one set of
images per algebroid, and the mirror operators read the same set: the
view's mirror carries the view's two algebroids swapped and reaches their
images through retype, storing none of its own.  The
operators are additive and commute with constant scaling but are not
C-infinity-linear, so an image is stored under the full monomial,
exponent included, and every other value is the Fraction-weighted sum of
stored images: the direct value.
Composites that repeat inside a call keep a wrapper of their own: D and
[D, c(e)] once per monomial, the Dorfman bracket and the Lie derivatives
L_x t once per pair of monomials (exterior.once_per_monomial_pair).
Nothing is stored on the pair; the images go with the view.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebroid import AlgebroidError, AlgebroidStructure, bv_boundary, validate_algebroid
from .exterior import (Form, FrameData, Multivector, interior_by_form,
                       interior_by_multivector, once_per_monomial, once_per_monomial_pair,
                       pairing, retype)
from .ring import (Polynomial, apply_field, divergence, field_bracket, first_non_skew,
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
        self._flipped: BialgebroidPair | None = None

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

        Built once and cached, and P.flipped().flipped() is P.  The halves
        are not re-validated (the axioms do not depend on which side is
        called primal), and the modular cocycles are P's, swapped and
        retyped, not recomputed.
        """
        if self._flipped is None:
            mod = self.modular
            twin = object.__new__(BialgebroidPair)
            twin.A = _with_kind(self.Astar, "vector")
            twin.Astar = _with_kind(self.A, "covector")
            twin.frame = self.frame
            twin.label = self.label
            twin._modular = ModularData(x0=retype(mod.xi0), xi0=retype(mod.x0))
            twin._flipped = self
            self._flipped = twin
        return self._flipped


def _with_kind(side: AlgebroidStructure, kind: str) -> AlgebroidStructure:
    return AlgebroidStructure(side.rank, side.coordinates, side.anchor, side.brackets, kind)


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


def _graded_probes(cls, rank, variables, coord_degree, max_index_size, total_degree=None):
    """x^gamma e_I with |gamma| <= coord_degree and |I| <= max_index_size, and
    |gamma| + |I| <= total_degree if given: by |I|, then I, then the degree
    of x^gamma."""
    monos = coordinate_monomials(variables, coord_degree)
    out = []
    for size in range(0, min(max_index_size, rank) + 1):
        kept = monos if total_degree is None else \
            [f for f in monos if f.total_degree() <= total_degree - size]
        for index in itertools.combinations(range(1, rank + 1), size):
            for f in kept:
                out.append(cls.monomial(rank, variables, index, f))
    return out


def multivector_probes(P: BialgebroidPair, coord_degree: int) -> List[Multivector]:
    return _graded_probes(Multivector, P.rank, P.coordinates, coord_degree, P.rank)


def _generator_products(P: BialgebroidPair, k: int) -> List[Multivector]:
    """The products x^gamma e_I of at most k generators x_a, e_i with
    |gamma| <= PROBE_DEGREE, in the order of multivector_probes, which they
    are a subsequence of.  An operator of order <= k over wedge A vanishes
    iff it vanishes on them (see PROBE_DEGREE and dirac_square).  For k = 1
    they are 1 followed by the generators x_1..x_m, e_1..e_n."""
    return _graded_probes(Multivector, P.rank, P.coordinates, min(k, PROBE_DEGREE), k, k)


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
    """d_* boundary + boundary d_* on a Multivector; on a Form, the mirror
    d boundary_* + boundary_* d, which is the former on (A*, A)."""
    if isinstance(target, Form):
        return retype(laplacian(P.flipped(), retype(target)))
    return P.dstar(P.boundary(target)) + P.boundary(P.dstar(target))


def _half_modular_lie(P: BialgebroidPair, target):
    """1/2 (L_{X_0} + L_{xi_0}) target."""
    mod = P.modular
    return (P.A.lie_derivative(mod.x0, target)
            + P.Astar.lie_derivative(mod.xi0, target)).scaled(Fraction(1, 2))


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
    fields rho x, rho y, and the first component a at which the Courant
    anchor defect, their difference, is nonzero (None when it vanishes)."""
    lhs = rho_field(P, x_o_y)
    rhs = field_bracket(rho_x, rho_y, P.coordinates)
    return lhs, rhs, next((a for a, (p, q) in enumerate(zip(lhs, rhs)) if p != q), None)


def rho_apply(P: BialgebroidPair, e: SectionE, f: Polynomial) -> Polynomial:
    """rho(e) f = a(vec) f + a_*(cov) f."""
    return apply_field(rho_field(P, e), f, P.coordinates)


def dorfman(P: BialgebroidPair, e1: SectionE, e2: SectionE) -> SectionE:
    """Dorfman bracket of the double:

    (X1+xi1) o (X2+xi2) = ([X1,X2] + L_{xi1} X2 - iota_{xi2} dstar X1)
                        + ([xi1,xi2]_* + L_{X1} xi2 - iota_{X2} d xi1).
    """
    X1, xi1, X2, xi2 = e1.vec, e1.cov, e2.vec, e2.cov
    vec = P.A.schouten(X1, X2) \
        + P.Astar.lie_derivative(xi1, X2) \
        - interior_by_form(xi2, P.dstar(X1))
    cov = P.Astar.schouten(xi1, xi2) \
        + P.A.lie_derivative(X1, xi2) \
        - interior_by_multivector(X2, P.d(xi1))
    return SectionE(vec, cov)


def _once_per_monomial_dorfman(P: BialgebroidPair):
    """dorfman(P, ., .) run once per pair of section monomials, keyed by the
    (class, I, gamma) of both slots; any other bracket is the Fraction-weighted
    sum of the stored images (see the module docstring for why that is exact)."""

    def section(part) -> SectionE:
        return SectionE.of(vec=part) if isinstance(part, Multivector) else SectionE.of(cov=part)

    def op(a, b):
        e = dorfman(P, section(a), section(b))
        return e.vec, e.cov

    bracket = once_per_monomial_pair(op)
    # a sum of brackets of sections is a section: no need to check it again
    return lambda e1, e2: SectionE._raw(*bracket((e1.vec, e1.cov), (e2.vec, e2.cov)))


def clifford_act(e: SectionE, w: Multivector) -> Multivector:
    """Spinor action e . w = vec ^ w + iota_cov w; squares to <e,e> w."""
    return e.vec.wedge(w) + interior_by_form(e.cov, w)


# -- the Dirac-type operator --------------------------------------------------------


def dirac_apply(P: BialgebroidPair, u: Multivector) -> Multivector:
    """D u = dstar u - boundary u + 1/2 (X_0 ^ u + iota_{xi_0} u)."""
    mod = P.modular
    half = Fraction(1, 2)
    return P.dstar(u) - P.boundary(u) \
        + mod.x0.wedge(u).scaled(half) + interior_by_form(mod.xi0, u).scaled(half)


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
    and the view reuse them) and the boundary is d_A conjugated by the top
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

    D, the formula's Laplacian and its Lie derivative along A* run on the
    view (_once_per_monomial_view): the Laplacian reads exactly the images
    that D(D(u)) has already taken.
    """
    P = _once_per_monomial_view(P)
    D, ft = _once_per_monomial_dirac(P), f_tilde(P)
    report = ScalarReport(is_scalar=True, f_tilde=ft)
    probes = _generator_products(P, 2)
    for u in probes:
        sq = D(D(u))
        formula = _half_modular_lie(P, u) - laplacian(P, u) + u.scaled(ft)
        if sq != formula:
            report.square_formula_ok = False
            report.formula_witness = f"u = {u}; D^2 u = {sq}; formula gives {formula}"
            break
    report.witness = _square_witness(probes, D, ft)
    report.is_scalar = report.witness is None
    return report


class _OncePerMonomialView(BialgebroidPair):
    """P for one decision call: copies of A and A* whose differential (d on
    forms, dstar on multivectors) runs once per monomial, and the two
    boundaries, read through the view's own A and A*, likewise.  Every
    operator written over the pair (dirac_apply, laplacian, dorfman, the
    Cartan formula of AlgebroidStructure.lie_derivative) then shares those
    images when called on the view.  flipped() is a view of P.flipped(),
    built on first use, whose flipped() is this view again.  It stores no
    images of its own: its A is A*'s data on the vector side, so its
    differential is this view's dstar moved across by retype, and likewise
    its dstar is this view's d and its two boundaries this view's
    boundary_star and boundary.  So the mirror operators of a call read the
    same images as the primal ones.  Nothing is stored on P: the images go
    when the view does."""

    def __init__(self, P: BialgebroidPair):
        self.__dict__.update(vars(P), _modular=P.modular, _flipped=None, _pair=P)
        for name in ("A", "Astar"):
            side = copy.copy(getattr(P, name))
            side.differential = once_per_monomial(side.differential)
            setattr(self, name, side)
        self.boundary = once_per_monomial(self.boundary)
        self.boundary_star = once_per_monomial(self.boundary_star)

    def flipped(self) -> "BialgebroidPair":
        if self._flipped is None:
            twin = self._pair.flipped()
            mirror = object.__new__(_OncePerMonomialView)
            mirror.__dict__.update(vars(twin), _modular=twin.modular, _flipped=self, _pair=twin)
            for name, op in (("A", self.Astar.differential), ("Astar", self.A.differential)):
                side = copy.copy(getattr(twin, name))
                side.differential = _across(op)
                setattr(mirror, name, side)
            mirror.boundary = _across(self.boundary_star)
            mirror.boundary_star = _across(self.boundary)
            self._flipped = mirror
        return self._flipped


def _across(op):
    """op on the other frame: the same images read as Multivectors <-> Forms."""
    return lambda w: retype(op(retype(w)))


def _once_per_monomial_view(P: BialgebroidPair) -> BialgebroidPair:
    """The view of P for one call (_OncePerMonomialView); a view of a view is
    that view, so nested decisions share one set of images."""
    return P if isinstance(P, _OncePerMonomialView) else _OncePerMonomialView(P)


def _once_per_monomial_dirac(P: BialgebroidPair):
    return once_per_monomial(lambda u: dirac_apply(P, u))


def _square_witness(probes, D, ft: Polynomial) -> Optional[str]:
    """First failure of D^2 u = f~ u over the probes, with D applied through
    the caller's once_per_monomial wrapper, or None."""
    for u in probes:
        residual = D(D(u)) - u.scaled(ft)
        if not residual.is_zero():
            return f"u = {u}; D^2 u - f~ u = {residual}"
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
    wedge A = Poly[x] (x) Lambda[e], or None.

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
    """
    gens = _generator_products(P, 1)[1:]
    images = [op(g) for g in gens]
    lhs_name, rhs_name = names
    for u, op_u in zip(gens, images):
        s = sign if u.max_degree() == 0 else 1  # sign^(|u|-1), |u| is 0 or 1
        for v, op_v in zip(gens, images):
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
    P = _once_per_monomial_view(P)
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


def _once_per_monomial_lie(P: BialgebroidPair):
    """L_x t along a degree-1 Multivector or Form x, once per pair of monomials."""
    return once_per_monomial_pair(
        lambda x, t: (P.A if isinstance(x, Multivector) else P.Astar).lie_derivative(x, t))


def _defect_witness(P: BialgebroidPair) -> Optional[str]:
    """First failure of (c): the commutator defect of (u, 0) o (0, theta)
    acting on forms is tensorial with trace 2 <d theta, dstar u>.

    The defect operator is top = L_e - (L_u L_theta - L_theta L_u) with
    e = (u, 0) o (0, theta).  Each L is additive in both slots and commutes
    with constants there, so one wrapper takes it once per pair of monomials
    for the whole call; on the caller's view (theorem_c_suite) the
    differentials that the Lie derivatives and the Dorfman bracket read are
    shared as well.  Tensoriality is read off the anchor field, with no
    evaluation of top on f eta: every L along a degree-1 section satisfies
    L_x(f eta) = f L_x eta + (rho(x) f) eta, and in the commutator the
    cross terms (rho(u) f) L_theta eta and (rho(theta) f) L_u eta cancel.
    So top(f eta) - f top(eta) = X(f) eta with the vector field
    X = rho(e) - [rho(u), rho(theta)], the Courant anchor defect of
    ((u, 0), (0, theta)) that courant/g2 computes (_anchor_defect).  X is a
    derivation in f, which vanishes for every polynomial f iff
    X(x_a) = X^a vanishes for every a, and for every eta iff it does for
    eta = eps^1.  The x_a come first among the monomials and eps^1 first
    among the eps^j, so the witness, which names x_a for the first a with
    X^a != 0 and eps^1, is the one that all f with |gamma| <= 2 and all
    eps^j would give.

    The pair (u, theta) runs over the x^gamma e_i and x^gamma eps^j with
    |gamma| <= 1, because both parts of the defect have order <= 1 in each
    slot (and not 0, so the frame alone would not do):
    * X(u, theta) is the Courant anchor defect A((u, 0), (0, theta)), which
      is C-infinity-linear in theta, and X(f u, theta) = f X(u, theta) +
      <theta, u> rho(D f) (see courant_axioms);
    * T(u, theta) = sum_j <top(eps^j), e_j> - 2 <d theta, dstar u> has
      T(f u, theta) - f T and T(u, f theta) - f T first order in f and zero
      at f = 1, so both are vector fields applied to f: the second-order
      terms cancel in pairs, sum_j [a(e_j), a_*(eps^j)] f against
      sum_i u^i [a_*(theta), a(e_i)] f in the u slot, and the two
      [a(u), a_*(eta)] f terms, of opposite signs, in the theta slot.
    An operator Q of order <= 1 in a slot satisfies Q(x_a x_b s) =
    x_a Q(x_b s) + x_b Q(x_a s) - x_a x_b Q(s), and x_b s, x_a s and s come
    before x_a x_b s in the probe order (by i, then the degree of x^gamma).
    So the first failing pair of all sections with |gamma| <= 2 has
    |gamma| <= 1 in both slots, and the witness is the one that family
    would give.
    """
    deg1_form = degree1_form_probes(P, 1)
    lie = _once_per_monomial_lie(P)
    d_forms = [P.d(th) for th in deg1_form]
    form_sections = [SectionE.of(cov=th) for th in deg1_form]
    form_fields = [rho_field(P, s) for s in form_sections]
    for u in degree1_multivector_probes(P, 1):
        du, su = P.dstar(u), SectionE.of(vec=u)
        rho_u = rho_field(P, su)
        for th, dth, sth, rho_th in zip(deg1_form, d_forms, form_sections, form_fields):
            e = dorfman(P, su, sth)
            _, _, a = _anchor_defect(P, rho_u, rho_th, e)
            if a is not None:
                return (f"u = {u}; theta = {th}; defect operator is not "
                        f"tensorial on ({P.coordinates[a]}) eps[1]")

            def top(eta: Form) -> Form:
                second = lie(u, lie(th, eta)) - lie(th, lie(u, eta))
                return lie(e.vec, eta) + lie(e.cov, eta) - second

            trace = Polynomial.zero(P.coordinates)
            for j in range(1, P.rank + 1):
                trace = trace + pairing(top(P.basis_eps(j)), P.basis_e(j))
            want = 2 * pairing(dth, du)
            if trace != want:
                return f"u = {u}; theta = {th}; trace = {trace}; 2<dstar u, d theta> = {want}"
    return None


def _theorem_c_primal(P: BialgebroidPair) -> Dict[str, Optional[str]]:
    """Witnesses (None on success) of the A-side items a, i, k, c, e.

    (a) graded Leibniz for dstar and (i) the Laplacian is a wedge
    derivation, both checked on the generators x_a, e_i (see
    _derivation_witness); (k) the Laplacian is half the sum of the modular
    Lie derivatives, and (e) is (k) on functions and degree-1 sections;
    (c) the commutator-defect operator is tensorial with the stated trace,
    checked on sections with |gamma| <= 1 and on f = x_a (see
    _defect_witness).  The (k) defect Lap - 1/2 (L_{X_0} + L_{xi_0}) has
    order <= 2 over wedge A, so it runs on the products of at most 2
    generators, with the witness that all x^gamma e_I with |gamma| <= 2
    would give (see dirac_square).  (e) fails exactly when the first
    failure of (k) on that full family has degree <= 1, and that failure
    is then (k)'s witness here too, so (e) needs no scan of its own.
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
    """
    wit_g = wit_h = None
    lap = functools.partial(laplacian, P)
    deg1_mv = degree1_multivector_probes(P, 1)
    lap_mv = [lap(u) for u in deg1_mv]
    for th in degree1_form_probes(P, 1):
        if wit_g and wit_h:
            break
        lap_th = lap(th)
        for u, lap_u in zip(deg1_mv, lap_mv):
            h = pairing(th, u)
            rhs = pairing(lap_th, u) + pairing(th, lap_u)
            lhs_g = lap(P.scalar_form(h)).scalar_part()
            if lhs_g != rhs and wit_g is None:
                wit_g = f"theta = {th}; u = {u}; Lap*<theta,u> = {lhs_g}; pairing side = {rhs}"
            lhs_h = lap(P.scalar_mv(h)).scalar_part()
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
    P = _once_per_monomial_view(P)
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
    P = _once_per_monomial_view(P)
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


def _anchor_witness(P: BialgebroidPair) -> Optional[str]:
    """First failure of 2 <D f, x> = rho(x) f, or None.  Both sides are
    C-infinity-linear in x and derivations in f, so f runs over the
    coordinates x_a and x over the frame."""
    frame = _double_sections(P, 0)
    for f in coordinate_monomials(P.coordinates, 1)[1:]:
        df = dee(P, f)
        for x in frame:
            lhs, rhs = metric(df, x) * 2, rho_apply(P, x, f)
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
      implementation;
    * A(x, f y) = f A(x, y) by g3: A is C-infinity-linear in y;
    * A(g x, y) = g A(x, y) + 2 <x, y> rho(D g), and rho(D g) =
      sum_a (d_a g) rho(D x_a), so A vanishes iff it does on N x F (g2);
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
    P = _once_per_monomial_view(P)
    frame, near = _double_sections(P, 0), _double_sections(P, 1)
    coords = coordinate_monomials(P.coordinates, 1)[1:]
    report = IdentityReport(suite="courant")
    add = report.records.append
    bracket = _once_per_monomial_dorfman(P)

    def jacobiator(x, y, z):
        return bracket(x, bracket(y, z)) - bracket(bracket(x, y), z) - bracket(y, bracket(x, z))

    wit2 = defect = None
    with_fields = [[(x, rho_field(P, x)) for x in family] for family in (near, frame)]
    for (x, rho_x), (y, rho_y) in itertools.product(*with_fields):
        lhs, rhs, a = _anchor_defect(P, rho_x, rho_y, bracket(x, y))
        if a is not None:
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

    wit = None
    for x, y, f in itertools.product(frame, frame, coords):
        if bracket(x, y.scaled(f)) != bracket(x, y).scaled(f) + y.scaled(rho_apply(P, x, f)):
            wit = f"x = {x}; y = {y}; f = {f}"
            break
    add(IdentityRecord("courant/g3", wit is None, wit))

    wit = None
    for x, y in itertools.product(frame, repeat=2):
        lhs = bracket(x, y) + bracket(y, x)
        rhs = dee(P, metric(x, y)).scaled(2)
        if lhs != rhs:
            wit = f"x = {x}; y = {y}; x o y + y o x = {lhs}; 2 D<x,y> = {rhs}"
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
        lhs = rho_apply(P, x, metric(y, z))
        rhs = metric(bracket(x, y), z) + metric(y, bracket(x, z))
        if lhs != rhs:
            wit = f"x = {x}; y = {y}; z = {z}; rho(x)<y,z> = {lhs}; bracket side = {rhs}"
            break
    add(IdentityRecord("courant/g6", wit is None, wit))

    wit = _anchor_witness(P)
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
    is again that of all x^gamma e_I with |gamma| <= 1.
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
    """
    P = _once_per_monomial_view(P)
    report = IdentityReport(suite="generator")
    add = report.records.append

    w_probes = _generator_products(P, 1)
    D = _once_per_monomial_dirac(P)

    wit = None
    for f in coordinate_monomials(P.coordinates, 1)[1:]:
        if wit:
            break
        df = dee(P, f)
        for w in w_probes:
            lhs = D(w.scaled(f)) - D(w).scaled(f)
            rhs = clifford_act(df, w)
            if lhs != rhs:
                wit = f"f = {f}; w = {w}; [D, f] w = {lhs}; Clifford(D f) w = {rhs}"
                break
    add(IdentityRecord("generator/commutator-function", wit is None, wit))

    anchor = _anchor_witness(P)
    # K = 0 and A = 0 make the derived-bracket defect trilinear (see above)
    degree = 0 if wit is None and anchor is None else 1
    e_probes, spinors = _double_sections(P, degree), multivector_probes(P, degree)

    def odd_commutator(e: SectionE):
        # [D, c_e] = D c_e + c_e D, additive like D, so also once per monomial
        return once_per_monomial(lambda u: D(clifford_act(e, u)) + clifford_act(e, D(u)))

    commutators = [odd_commutator(e1) for e1 in e_probes]
    wit = None
    for e2 in e_probes:
        if wit:
            break
        c2 = [clifford_act(e2, w) for w in spinors]
        for e1, d_e1 in zip(e_probes, commutators):
            target = dorfman(P, e1, e2)
            for w, c2w in zip(spinors, c2):
                # [[D,e1],e2] w = [D,e1](e2 . w) - e2 . [D,e1] w
                lhs = d_e1(c2w) - clifford_act(e2, d_e1(w))
                rhs = clifford_act(target, w)
                if lhs != rhs:
                    wit = (f"e1 = {e1}; e2 = {e2}; w = {w}; "
                           f"[[D,e1],e2] w = {lhs}; Clifford(e1 o e2) w = {rhs}")
                    break
            if wit:
                break
    add(IdentityRecord("generator/derived-bracket", wit is None, wit))

    # D^2 - f~ has order <= 2 over wedge A by construction (see dirac_square)
    wit = _square_witness(_generator_products(P, 2), D, f_tilde(P))
    add(IdentityRecord("generator/square-scalar", wit is None, wit))

    add(IdentityRecord("generator/anchor", anchor is None, anchor))

    return report
