"""Dual pairs of Lie algebroid structures and their Dirac-type operator.

A BialgebroidPair holds two validated AlgebroidStructures on dual frames
(the primal side acting on Multivectors, the dual side on Forms) plus the
trivializing FrameData.  On top of that this module builds:

* the modular cocycles X_0 and xi_0 of the pair,
* the boundary operators and Laplacians on both sides,
* the metric, Dorfman bracket, and Clifford action of the double,
* the odd operator

      D = dstar - boundary + 1/2 (X_0 ^ .  +  iota_{xi_0})

  acting on multivectors, and its mirror on forms,

and decides exactly, on a finite probe family, whether D^2 is
multiplication by a function.  Because every operator involved is a
differential operator of order at most two with polynomial coefficients,
evaluating on all x^gamma e_I with |gamma| <= 2 is a complete decision
procedure, not a heuristic; ProbeConfig records the degree bounds and the
suites refuse bounds below the operator order.

The compatibility criterion (the derivation property of dstar over the
bracket), the twelve-part equivalence suite, the corollary identities,
the Courant axioms of the double, and the generating-operator conditions
are each exposed as report-producing functions with polynomial witnesses
on failure.

Mirrors by duality.  (A, A*) is a Lie bialgebroid exactly when (A*, A)
is (Mackenzie-Xu), so every A*-side object is the A-side one computed on
BialgebroidPair.flipped(): the same frame with A*'s data as the vector
side and A's as the covector side, elements moved across by the zero-copy
exterior.retype.  The mirror operator on forms, f~*, the 'Astar'
Laplacian and the items (b), (d), (f), (j), (l) of the equivalence suite
have no code of their own.  A mirror witness is the primal witness found
on the flipped pair, so it names flipped elements (e[i] there is eps^i
here) and carries the prefix "on (A*, A): ".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebroid import AlgebroidError, AlgebroidStructure, bv_boundary, validate_algebroid
from .exterior import (Form, FrameData, Multivector, interior_by_form,
                       interior_by_multivector, pairing, retype)
from .ring import Polynomial, divergence, field_bracket


class PairError(ValueError):
    pass


class PreconditionError(PairError):
    """A suite was asked to run on input that fails its precondition."""


MIRROR_PREFIX = "on (A*, A): "


def _mirror_witness(witness: Optional[str]) -> Optional[str]:
    return None if witness is None else MIRROR_PREFIX + witness


@dataclass(frozen=True)
class ProbeConfig:
    """Degree bounds for the exact probe families.

    max_coord_degree bounds |gamma| in coefficient probes x^gamma (the
    operator-order bound; must be >= 2 for the order-2 suites), and
    max_section_degree bounds coefficient degrees of universally
    quantified section arguments (order <= 1 there).
    """

    max_coord_degree: int = 2
    max_section_degree: int = 2

    def __post_init__(self):
        if self.max_coord_degree < 0 or self.max_section_degree < 0:
            raise PairError("probe degrees must be nonnegative")


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
        if m == 0:
            if total == 0:
                out.append(Polynomial.const(variables, 1))
            continue
        for combo in itertools.combinations_with_replacement(range(m), total):
            exps = [0] * m
            for i in combo:
                exps[i] += 1
            out.append(Polynomial(variables, {tuple(exps): Fraction(1)}))
    return out


def _graded_probes(cls, rank, variables, coord_degree, max_index_size=None):
    if max_index_size is None:
        max_index_size = rank
    monos = coordinate_monomials(variables, coord_degree)
    out = []
    for size in range(0, min(max_index_size, rank) + 1):
        for index in itertools.combinations(range(1, rank + 1), size):
            for f in monos:
                out.append(cls.monomial(rank, variables, index, f))
    return out


def multivector_probes(P: BialgebroidPair, coord_degree: int) -> List[Multivector]:
    return _graded_probes(Multivector, P.rank, P.coordinates, coord_degree)


def form_probes(P: BialgebroidPair, coord_degree: int) -> List[Form]:
    return _graded_probes(Form, P.rank, P.coordinates, coord_degree)


def section_probes(P: BialgebroidPair, coord_degree: int, max_index_size: int = 2):
    return _graded_probes(Multivector, P.rank, P.coordinates, coord_degree, max_index_size)


def degree1_multivector_probes(P: BialgebroidPair, coord_degree: int) -> List[Multivector]:
    monos = coordinate_monomials(P.coordinates, coord_degree)
    return [Multivector.monomial(P.rank, P.coordinates, (i,), f)
            for i in range(1, P.rank + 1) for f in monos]


def degree1_form_probes(P: BialgebroidPair, coord_degree: int) -> List[Form]:
    monos = coordinate_monomials(P.coordinates, coord_degree)
    return [Form.monomial(P.rank, P.coordinates, (j,), f)
            for j in range(1, P.rank + 1) for f in monos]


# -- modular cocycles -----------------------------------------------------------


def modular_cocycles(P: BialgebroidPair, verify: bool = True) -> ModularData:
    """Frame components of the modular cocycles.

    <xi_0, e_i> = div_s(a(e_i)) + (coefficient of [e_i, V] on V) and
    <X_0, eps^j> = (coefficient of [eps^j, Omega]_* on Omega) + div_s(a_*(eps^j)).
    With verify=True the defining equations are re-checked on probes
    x_a e_i (they must be C-infinity-linear for valid structures; failure
    means an implementation bug, so it raises).
    """
    n, coords = P.rank, P.coordinates
    top = P.frame.top_index

    def xi_component(u: Multivector) -> Polynomial:
        lead = P.A.schouten(u, P.frame.vee).coefficient(top)
        return divergence(P.A.anchor_field(u), coords) + lead

    def x_component(theta: Form) -> Polynomial:
        lead = P.Astar.schouten(theta, P.frame.omega).coefficient(top)
        return divergence(P.Astar.anchor_field(theta), coords) + lead

    xi0 = Form(n, coords, {(i,): xi_component(P.basis_e(i)) for i in range(1, n + 1)})
    x0 = Multivector(n, coords, {(j,): x_component(P.basis_eps(j)) for j in range(1, n + 1)})

    if verify:
        for f in coordinate_monomials(coords, 1)[1:]:
            for i in range(1, n + 1):
                probe = Multivector.monomial(n, coords, (i,), f)
                want = pairing(xi0, probe)
                if xi_component(probe) != want:
                    raise PairError(
                        f"modular defining relation is not tensorial on {probe} (internal error)")
            for j in range(1, n + 1):
                probe = Form.monomial(n, coords, (j,), f)
                want = pairing(probe, x0)
                if x_component(probe) != want:
                    raise PairError(
                        f"dual modular defining relation is not tensorial on {probe} (internal error)")
    return ModularData(x0=x0, xi0=xi0)


def f_tilde(P: BialgebroidPair) -> Polynomial:
    """The scalar candidate 1/2 (1/2 <xi_0, X_0> - boundary X_0)."""
    mod = P.modular
    inner = pairing(mod.xi0, mod.x0)
    bx0 = P.boundary(mod.x0).scalar_part()
    value = (inner * Fraction(1, 2) - bx0) * Fraction(1, 2)
    if not P.coordinates and not value.is_constant():
        raise PairError("non-constant scalar over a point base (internal error)")
    return value


def f_tilde_star(P: BialgebroidPair) -> Polynomial:
    """Mirror candidate 1/2 (1/2 <xi_0, X_0> - boundary_star xi_0): f~ of (A*, A)."""
    return f_tilde(P.flipped())


# -- Laplacians and mixed Lie derivatives ------------------------------------------


def laplacian(P: BialgebroidPair, side: str, target):
    """d_* boundary + boundary d_* on multivectors ('A'), or the mirror
    d boundary_* + boundary_* d on forms ('Astar')."""
    if side == "A":
        if not isinstance(target, Multivector):
            raise PairError("side 'A' acts on Multivectors")
        return P.dstar(P.boundary(target)) + P.boundary(P.dstar(target))
    if side == "Astar":
        if not isinstance(target, Form):
            raise PairError("side 'Astar' acts on Forms")
        return retype(laplacian(P.flipped(), "A", retype(target)))
    raise PairError(f"unknown side {side!r}")


def lie_by_multivector(P: BialgebroidPair, x: Multivector, target):
    """Lie derivative along a degree-1 section of the primal side."""
    if isinstance(target, Multivector):
        return P.A.schouten(x, target)
    return P.A.lie_derivative(x, target)


def lie_by_form(P: BialgebroidPair, theta: Form, target):
    """Lie derivative along a degree-1 section of the dual side."""
    if isinstance(target, Form):
        return P.Astar.schouten(theta, target)
    return P.Astar.lie_derivative(theta, target)


def lie_by_section(P: BialgebroidPair, e: SectionE, target):
    return lie_by_multivector(P, e.vec, target) + lie_by_form(P, e.cov, target)


def _half_modular_lie(P: BialgebroidPair, target):
    """1/2 (L_{X_0} + L_{xi_0}) target."""
    mod = P.modular
    return (lie_by_multivector(P, mod.x0, target)
            + lie_by_form(P, mod.xi0, target)).scaled(Fraction(1, 2))


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


def rho_apply(P: BialgebroidPair, e: SectionE, f: Polynomial) -> Polynomial:
    out = Polynomial.zero(P.coordinates)
    for comp, name in zip(rho_field(P, e), P.coordinates):
        out = out + comp * f.diff(name)
    return out


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


def _require_order2(cfg: ProbeConfig):
    if cfg.max_coord_degree < 2:
        raise PairError("this suite decides an order-2 operator identity; "
                        "max_coord_degree must be at least 2")


def dirac_square(P: BialgebroidPair, cfg: ProbeConfig = ProbeConfig()) -> ScalarReport:
    """Decide whether D^2 is multiplication by a function.

    Also checks, for every pair, the unconditional square formula
    D^2 u = (1/2 (L_{X_0} + L_{xi_0}) - Laplacian) u + f~ u on the same
    probes; its failure would indicate an implementation fault and is
    reported in square_formula_ok rather than swallowed.
    """
    _require_order2(cfg)
    ft = f_tilde(P)
    report = ScalarReport(is_scalar=True, f_tilde=ft)
    for u in multivector_probes(P, cfg.max_coord_degree):
        sq = dirac_apply(P, dirac_apply(P, u))
        residual = sq - u.scaled(ft)
        if not residual.is_zero() and report.is_scalar:
            report.is_scalar = False
            report.witness = f"u = {u}; D^2 u - f~ u = {residual}"
        formula = _half_modular_lie(P, u) - laplacian(P, "A", u) + u.scaled(ft)
        if sq != formula and report.square_formula_ok:
            report.square_formula_ok = False
            report.formula_witness = f"u = {u}; D^2 u = {sq}; formula gives {formula}"
        if not report.is_scalar and not report.square_formula_ok:
            break
    return report


def dirac_star_square(P: BialgebroidPair, cfg: ProbeConfig = ProbeConfig()) -> ScalarReport:
    """Mirror decision for the operator on forms: dirac_square of (A*, A),
    whose f~ is f~* = 1/2(1/2<xi_0,X_0> - boundary_* xi_0)."""
    report = dirac_square(P.flipped(), cfg)
    report.witness = _mirror_witness(report.witness)
    report.formula_witness = _mirror_witness(report.formula_witness)
    return report


# -- compatibility and the identity suites ----------------------------------------------


def _leibniz_dstar_witness(P: BialgebroidPair, probes) -> Optional[str]:
    """First failure of dstar[u,v] = [dstar u, v] + (-1)^(k-1) [u, dstar v], or None."""
    for u in probes:
        ku = u.max_degree()
        sign = 1 if (ku - 1) % 2 == 0 else -1
        du = P.dstar(u)
        for v in probes:
            lhs = P.dstar(P.A.schouten(u, v))
            rhs = P.A.schouten(du, v) + P.A.schouten(u, P.dstar(v)).scaled(sign)
            if lhs != rhs:
                return (f"u = {u}; v = {v}; dstar[u,v] = {lhs}; "
                        f"Leibniz side = {rhs}")
    return None


def is_lie_bialgebroid(P: BialgebroidPair, cfg: ProbeConfig = ProbeConfig()) -> IdentityReport:
    """Decide pair compatibility: dstar must be a derivation of the bracket.

    Probes run over homogeneous u = x^gamma e_I with |I| <= 2 and
    |gamma| <= cfg.max_coord_degree, which decides the condition exactly.
    """
    _require_order2(cfg)
    probes = section_probes(P, cfg.max_coord_degree, max_index_size=2)
    witness = _leibniz_dstar_witness(P, probes)
    report = IdentityReport(suite="leibniz")
    report.records.append(IdentityRecord("leibniz-dstar", witness is None, witness))
    return report


def _laplacians(P: BialgebroidPair, probes) -> Dict[int, Multivector]:
    return {id(u): laplacian(P, "A", u) for u in probes}


def _modular_lie_witness(P: BialgebroidPair, probes, lap) -> Optional[str]:
    """First u with Lap u = lap[id(u)] != 1/2 (L_{X_0} + L_{xi_0}) u, or None."""
    for u in probes:
        rhs = _half_modular_lie(P, u)
        if lap[id(u)] != rhs:
            return f"u = {u}; Lap u = {lap[id(u)]}; half modular Lie = {rhs}"
    return None


def _wedge_derivation_witness(P: BialgebroidPair, probes, lap) -> Optional[str]:
    """First failure of Lap(u ^ v) = Lap u ^ v + u ^ Lap v, or None.

    lap[id(u)] is Lap u.  Pairs with u ^ v = 0 and |u| + |v| > rank are
    skipped exactly: the probes are homogeneous and the Laplacian
    preserves degree, so both sides vanish there.
    """
    for u in probes:
        for v in probes:
            prod = u.wedge(v)
            if prod.is_zero() and u.max_degree() + v.max_degree() > P.rank:
                continue
            lhs = laplacian(P, "A", prod)
            rhs = lap[id(u)].wedge(v) + u.wedge(lap[id(v)])
            if lhs != rhs:
                return f"u = {u}; v = {v}; Lap(u^v) = {lhs}; derivation side = {rhs}"
    return None


def _defect_witness(P: BialgebroidPair, deg1_mv, deg1_form, lin_funcs) -> Optional[str]:
    """First failure of (c): the commutator defect of (u, 0) o (0, theta)
    acting on forms is tensorial with trace 2 <d theta, dstar u>."""
    for u in deg1_mv:
        du = P.dstar(u)
        for th in deg1_form:
            e = dorfman(P, SectionE.of(vec=u), SectionE.of(cov=th))

            def top(eta: Form) -> Form:
                second = lie_by_multivector(P, u, lie_by_form(P, th, eta)) \
                    - lie_by_form(P, th, lie_by_multivector(P, u, eta))
                return lie_by_section(P, e, eta) - second

            base = [top(P.basis_eps(j)) for j in range(1, P.rank + 1)]
            for f in lin_funcs:
                for j in range(1, P.rank + 1):
                    probe = Form.monomial(P.rank, P.coordinates, (j,), f)
                    if top(probe) != base[j - 1].scaled(f):
                        return (f"u = {u}; theta = {th}; defect operator is not "
                                f"tensorial on ({f}) eps[{j}]")
            trace = Polynomial.zero(P.coordinates)
            for j in range(1, P.rank + 1):
                trace = trace + pairing(base[j - 1], P.basis_e(j))
            want = 2 * pairing(P.d(th), du)
            if trace != want:
                return f"u = {u}; theta = {th}; trace = {trace}; 2<dstar u, d theta> = {want}"
    return None


def _theorem_c_primal(P: BialgebroidPair, cfg: ProbeConfig) -> Dict[str, Optional[str]]:
    """Witnesses (None on success) of the A-side items a, i, k, c, e.

    (a) graded Leibniz for dstar; (i) the Laplacian is a wedge derivation;
    (k) it is half the sum of the modular Lie derivatives, and (e) is (k)
    on functions and degree-1 sections; (c) the commutator-defect operator
    is tensorial with the stated trace.
    """
    mv_all = multivector_probes(P, cfg.max_coord_degree)
    deg1_mv = degree1_multivector_probes(P, cfg.max_section_degree)
    funcs = coordinate_monomials(P.coordinates, cfg.max_coord_degree)
    lap = _laplacians(P, mv_all)
    low = [P.scalar_mv(f) for f in funcs] + deg1_mv
    return {
        "a": _leibniz_dstar_witness(
            P, section_probes(P, cfg.max_section_degree, max_index_size=2)),
        "i": _wedge_derivation_witness(P, mv_all, lap),
        "k": _modular_lie_witness(P, mv_all, lap),
        "c": _defect_witness(P, deg1_mv, degree1_form_probes(P, cfg.max_section_degree),
                             [f for f in funcs if f.total_degree() >= 1]),
        "e": _modular_lie_witness(P, low, _laplacians(P, low)),
    }


def _pairing_witnesses(P: BialgebroidPair, cfg: ProbeConfig) -> Tuple[Optional[str], Optional[str]]:
    """Witnesses of (g) and (h), which share the pairing side."""
    wit_g = wit_h = None
    deg1_mv = degree1_multivector_probes(P, cfg.max_section_degree)
    for th in degree1_form_probes(P, cfg.max_section_degree):
        if wit_g and wit_h:
            break
        lap_th = laplacian(P, "Astar", th)
        for u in deg1_mv:
            h = pairing(th, u)
            rhs = pairing(lap_th, u) + pairing(th, laplacian(P, "A", u))
            lhs_g = laplacian(P, "Astar", P.scalar_form(h)).scalar_part()
            if lhs_g != rhs and wit_g is None:
                wit_g = f"theta = {th}; u = {u}; Lap*<theta,u> = {lhs_g}; pairing side = {rhs}"
            lhs_h = laplacian(P, "A", P.scalar_mv(h)).scalar_part()
            if lhs_h != rhs and wit_h is None:
                wit_h = f"theta = {th}; u = {u}; Lap<theta,u> = {lhs_h}; pairing side = {rhs}"
            if wit_g and wit_h:
                break
    return wit_g, wit_h


_MIRROR_ID = {"a": "b", "i": "j", "k": "l", "c": "d", "e": "f"}


def theorem_c_suite(P: BialgebroidPair, cfg: ProbeConfig = ProbeConfig()) -> IdentityReport:
    """All twelve equivalence-suite assertions, ids thm-c/a .. thm-c/l.

    The A-side items a, i, k, c, e run on P; their mirrors b, j, l, d, f
    are the same checks on P.flipped().  (g) and (h) run as one loop.
    """
    _require_order2(cfg)
    primal = _theorem_c_primal(P, cfg)
    mirror = {_MIRROR_ID[k]: _mirror_witness(w)
              for k, w in _theorem_c_primal(P.flipped(), cfg).items()}
    wit_g, wit_h = _pairing_witnesses(P, cfg)
    found = {**primal, **mirror, "g": wit_g, "h": wit_h}
    report = IdentityReport(suite="theorem-c")
    for x in "abijklghcdef":
        report.records.append(IdentityRecord(f"thm-c/{x}", found[x] is None, found[x]))
    return report


def corollary_suite(P: BialgebroidPair, cfg: ProbeConfig = ProbeConfig()) -> IdentityReport:
    """Modular-cocycle corollaries; requires the pair to be compatible."""
    gate = is_lie_bialgebroid(P, cfg)
    if not gate.passed:
        raise PreconditionError(
            f"corollary suite needs a Lie bialgebroid; {gate.records[0].witness}")
    mod = P.modular
    report = IdentityReport(suite="corollaries")
    add = report.records.append
    coords = P.coordinates
    vee, omega = P.frame.vee, P.frame.omega

    lx_v = lie_by_multivector(P, mod.x0, vee)
    lxi_v = lie_by_form(P, mod.xi0, vee)
    ok = lx_v == -lxi_v
    add(IdentityRecord("cor-blistering/m", ok,
                       None if ok else f"L_X0 V = {lx_v}; -L_xi0 V = {-lxi_v}"))

    lx_o = lie_by_multivector(P, mod.x0, omega)
    lxi_o = lie_by_form(P, mod.xi0, omega)
    ok = lx_o == -lxi_o
    add(IdentityRecord("cor-blistering/n", ok,
                       None if ok else f"L_X0 Omega = {lx_o}; -L_xi0 Omega = {-lxi_o}"))

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
    mv_all = multivector_probes(P, cfg.max_coord_degree)
    wit = _wedge_derivation_witness(P, mv_all, _laplacians(P, mv_all))
    add(IdentityRecord("cor-brood/g14", wit is None, wit))

    sec = section_probes(P, cfg.max_section_degree, max_index_size=2)
    wit = None
    for u in sec:
        if wit:
            break
        for v in sec:
            lhs = laplacian(P, "A", P.A.schouten(u, v))
            rhs = P.A.schouten(laplacian(P, "A", u), v) + P.A.schouten(u, laplacian(P, "A", v))
            if lhs != rhs:
                wit = f"u = {u}; v = {v}; Lap[u,v] = {lhs}; derivation side = {rhs}"
                break
    add(IdentityRecord("cor-brood/g15", wit is None, wit))

    ft4 = f_tilde(P) * 4
    lhs_q = lie_by_multivector(P, mod.x0, omega).coefficient(P.frame.top_index) + div_x
    ok = lhs_q == ft4
    add(IdentityRecord("cor-commissoner/q", ok,
                       None if ok else f"L_X0 (Omega (x) s) / (Omega (x) s) = {lhs_q}; 4 f~ = {ft4}"))

    lhs_r = div_xi + lie_by_form(P, mod.xi0, vee).coefficient(P.frame.top_index)
    ok = lhs_r == ft4
    add(IdentityRecord("cor-commissoner/r", ok,
                       None if ok else f"L_xi0 (s (x) V) / (s (x) V) = {lhs_r}; 4 f~ = {ft4}"))

    # base Poisson structure and its modular field
    m = len(coords)
    wit = None
    base_pi = [[Polynomial.zero(coords) for _ in range(m)] for _ in range(m)]
    for j in range(m):
        for k in range(m):
            acc = Polynomial.zero(coords)
            for i in range(P.rank):
                acc = acc + P.Astar.anchor[i][j] * P.A.anchor[i][k]
            base_pi[j][k] = acc
    for j in range(m):
        for k in range(m):
            if base_pi[j][k] != -base_pi[k][j]:
                wit = f"induced base bivector is not skew at ({j + 1},{k + 1})"
    if wit is None:
        lhs_field = [Polynomial.zero(coords) for _ in range(m)]
        for j in range(m):
            for k in range(m):
                lhs_field[j] = lhs_field[j] + base_pi[j][k].diff(coords[k])
        a_xi = P.Astar.anchor_field(mod.xi0)
        a_x = P.A.anchor_field(mod.x0)
        rhs_field = [(p - q) * Fraction(1, 2) for p, q in zip(a_xi, a_x)]
        for j in range(m):
            if lhs_field[j] != rhs_field[j]:
                wit = (f"component {j + 1}: divergence side = {lhs_field[j]}; "
                       f"half anchor difference = {rhs_field[j]}")
                break
    add(IdentityRecord("cor-extremal/xs", wit is None, wit))

    return report


def default_courant_samples(P: BialgebroidPair) -> List[SectionE]:
    """Deterministic sample sections of the double used by the axiom suite."""
    out: List[SectionE] = []
    for i in range(1, P.rank + 1):
        out.append(SectionE.of(vec=P.basis_e(i)))
        out.append(SectionE.of(cov=P.basis_eps(i)))
        out.append(SectionE(P.basis_e(i), P.basis_eps(i)))
    if P.coordinates:
        x1 = Polynomial.variable(P.coordinates, P.coordinates[0])
        out.append(SectionE.of(vec=P.basis_e(1).scaled(x1)))
        out.append(SectionE.of(cov=P.basis_eps(P.rank).scaled(x1)))
        out.append(SectionE(P.basis_e(P.rank).scaled(x1), P.basis_eps(1).scaled(x1)))
    return out


def _anchor_witness(P: BialgebroidPair, functions, sections) -> Optional[str]:
    """First failure of 2 <D f, x> = rho(x) f, or None."""
    for f in functions:
        df = dee(P, f)
        for x in sections:
            lhs, rhs = metric(df, x) * 2, rho_apply(P, x, f)
            if lhs != rhs:
                return f"f = {f}; x = {x}; 2<Df,x> = {lhs}; rho(x)f = {rhs}"
    return None


def courant_axioms(P: BialgebroidPair, samples: Sequence[SectionE] | None = None,
                   functions: Sequence[Polynomial] | None = None) -> IdentityReport:
    """The six double-structure axioms plus the anchor-D duality relation."""
    if samples is None:
        samples = default_courant_samples(P)
    if functions is None:
        functions = coordinate_monomials(P.coordinates, 2)
    report = IdentityReport(suite="courant")
    add = report.records.append

    wit = None
    for x, y, z in itertools.product(samples, repeat=3):
        lhs = dorfman(P, x, dorfman(P, y, z))
        rhs = dorfman(P, dorfman(P, x, y), z) + dorfman(P, y, dorfman(P, x, z))
        if lhs != rhs:
            wit = f"x = {x}; y = {y}; z = {z}"
            break
    add(IdentityRecord("courant/g1", wit is None, wit))

    wit = None
    for x, y in itertools.product(samples, repeat=2):
        lhs = rho_field(P, dorfman(P, x, y))
        rhs = field_bracket(rho_field(P, x), rho_field(P, y), P.coordinates)
        if any(p != q for p, q in zip(lhs, rhs)):
            wit = f"x = {x}; y = {y}; rho(x o y) = {tuple(map(str, lhs))}; [rho x, rho y] = {tuple(map(str, rhs))}"
            break
    add(IdentityRecord("courant/g2", wit is None, wit))

    wit = None
    for x, y in itertools.product(samples, repeat=2):
        if wit:
            break
        base = dorfman(P, x, y)
        for f in functions:
            lhs = dorfman(P, x, y.scaled(f))
            rhs = base.scaled(f) + y.scaled(rho_apply(P, x, f))
            if lhs != rhs:
                wit = f"x = {x}; y = {y}; f = {f}"
                break
    add(IdentityRecord("courant/g3", wit is None, wit))

    wit = None
    for x, y in itertools.product(samples, repeat=2):
        lhs = dorfman(P, x, y) + dorfman(P, y, x)
        rhs = dee(P, metric(x, y)).scaled(2)
        if lhs != rhs:
            wit = f"x = {x}; y = {y}; x o y + y o x = {lhs}; 2 D<x,y> = {rhs}"
            break
    add(IdentityRecord("courant/g4", wit is None, wit))

    wit = None
    for f in functions:
        if wit:
            break
        df = dee(P, f)
        for x in samples:
            out = dorfman(P, df, x)
            if not out.is_zero():
                wit = f"f = {f}; x = {x}; Df o x = {out}"
                break
    add(IdentityRecord("courant/g5", wit is None, wit))

    wit = None
    for x, y, z in itertools.product(samples, repeat=3):
        lhs = rho_apply(P, x, metric(y, z))
        rhs = metric(dorfman(P, x, y), z) + metric(y, dorfman(P, x, z))
        if lhs != rhs:
            wit = f"x = {x}; y = {y}; z = {z}; rho(x)<y,z> = {lhs}; bracket side = {rhs}"
            break
    add(IdentityRecord("courant/g6", wit is None, wit))

    wit = _anchor_witness(P, functions, samples)
    add(IdentityRecord("courant/anchor", wit is None, wit))

    return report


def generator_check(P: BialgebroidPair, cfg: ProbeConfig = ProbeConfig()) -> IdentityReport:
    """Generating-operator conditions for D on the spinor module wedge A.

    Checks, on exact probe families: [D, f] is the Clifford action of
    D f; the derived bracket [[D, e1], e2] is the Clifford action of the
    Dorfman bracket e1 o e2; D^2 is multiplication by a function; and the
    anchor is recovered from 2 <[D, f], e> = rho(e) f.  (Both sides of the
    derived-bracket identity have order <= 1 in each section slot and in
    the spinor slot, so coefficient degree 1 is exact there.)
    """
    _require_order2(cfg)
    report = IdentityReport(suite="generator")
    add = report.records.append

    w_probes = multivector_probes(P, 1)
    funcs = coordinate_monomials(P.coordinates, cfg.max_coord_degree)
    d_cache = {id(w): dirac_apply(P, w) for w in w_probes}

    wit = None
    for f in funcs:
        if wit:
            break
        df = dee(P, f)
        for w in w_probes:
            lhs = dirac_apply(P, w.scaled(f)) - d_cache[id(w)].scaled(f)
            rhs = clifford_act(df, w)
            if lhs != rhs:
                wit = f"f = {f}; w = {w}; [D, f] w = {lhs}; Clifford(D f) w = {rhs}"
                break
    add(IdentityRecord("generator/commutator-function", wit is None, wit))

    e_monos = coordinate_monomials(P.coordinates, 1)
    e_probes: List[SectionE] = []
    for i in range(1, P.rank + 1):
        for f in e_monos:
            e_probes.append(SectionE.of(vec=P.basis_e(i).scaled(f)))
            e_probes.append(SectionE.of(cov=P.basis_eps(i).scaled(f)))

    wit = None
    for e2 in e_probes:
        if wit:
            break
        c2 = {id(w): clifford_act(e2, w) for w in w_probes}
        dc2 = {id(w): dirac_apply(P, c2[id(w)]) for w in w_probes}
        for e1 in e_probes:
            target = dorfman(P, e1, e2)
            for w in w_probes:
                # [[D,e1],e2] w with [D,e] the odd anticommutator D c_e + c_e D
                t1 = dirac_apply(P, clifford_act(e1, c2[id(w)]))
                t2 = clifford_act(e1, dc2[id(w)])
                t3 = clifford_act(e2, dirac_apply(P, clifford_act(e1, w)))
                t4 = clifford_act(e2, clifford_act(e1, d_cache[id(w)]))
                lhs = t1 + t2 - t3 - t4
                rhs = clifford_act(target, w)
                if lhs != rhs:
                    wit = (f"e1 = {e1}; e2 = {e2}; w = {w}; "
                           f"[[D,e1],e2] w = {lhs}; Clifford(e1 o e2) w = {rhs}")
                    break
            if wit:
                break
    add(IdentityRecord("generator/derived-bracket", wit is None, wit))

    sq = dirac_square(P, cfg)
    wit = None if sq.is_scalar else sq.witness
    add(IdentityRecord("generator/square-scalar", sq.is_scalar, wit))

    basis_sections = [SectionE.of(vec=P.basis_e(i)) for i in range(1, P.rank + 1)] \
        + [SectionE.of(cov=P.basis_eps(j)) for j in range(1, P.rank + 1)]
    wit = _anchor_witness(P, funcs, basis_sections)
    add(IdentityRecord("generator/anchor", wit is None, wit))

    return report
