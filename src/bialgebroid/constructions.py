"""Builders for the standard families of dual pairs.

Four families are covered, each with its own identity report:

* exact pairs: a bivector Lambda on a Lie algebroid A with
  [[Lambda, Lambda], X] = 0 induces a dual structure whose bracket is
  L_{Lambda# xi} theta - iota_{Lambda# theta} d xi and whose anchor is
  a o Lambda#; when [Lambda, Lambda] = 0 the pair is triangular,
* Poisson-Nijenhuis hierarchies: a Nijenhuis endomorphism N compatible
  with a Poisson bivector Lambda yields deformed brackets A_l and duals
  A*_k from Lambda_k# = N^k o Lambda#, all of which pair into
  bialgebroids with vanishing square scalar,
* the rank-2 Lie bialgebra family over a point with brackets
  [e1, e2] = a e1 + b e2 and [eps1, eps2] = c eps1 + d eps2,
* tangent/cotangent doubles of polynomial Poisson structures pi on R^m,
  which are the triangular pairs of pi on TR^m.

All constructors validate their input data exactly and raise
ConstructionError with a witness on failure; every returned pair has
both halves re-validated by the BialgebroidPair constructor.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .algebroid import AlgebroidError, AlgebroidStructure, bv_boundary
from .exterior import (Form, FrameData, Multivector, interior_by_form,
                       interior_by_multivector, pairing, retype)
from .pair import (BialgebroidPair, IdentityRecord, IdentityReport,
                   PreconditionError, _generator_products, _modular_class,
                   _once_per_monomial_view, degree1_form_probes, dirac_square,
                   is_lie_bialgebroid, laplacian)
from .ring import (_MAX_POWER_BITS, _MAX_POWER_DEGREE, _MAX_POWER_TERMS, Polynomial,
                   divergence, first_non_skew, identity_matrix, matrix_product)


class ConstructionError(ValueError):
    pass


def _coerce_poly(value, variables) -> Polynomial:
    if isinstance(value, Polynomial):
        if value.variables != tuple(variables):
            raise ConstructionError("polynomial over the wrong coordinates")
        return value
    if isinstance(value, str):
        return Polynomial.parse(value, variables)
    return Polynomial.const(variables, value)


def tangent_algebroid(coordinates: Sequence[str]) -> AlgebroidStructure:
    """The tangent structure on R^m: identity anchor, vanishing brackets."""
    coords = tuple(coordinates)
    anchor = identity_matrix(len(coords), coords)
    return AlgebroidStructure(len(coords), coords, anchor, {}, "vector")


# -- bivector data and exact pairs --------------------------------------------------


class BivectorData:
    """A degree-2 multivector Lambda together with its induced sharp map."""

    __slots__ = ("Lambda",)

    def __init__(self, Lambda: Multivector):
        if not isinstance(Lambda, Multivector):
            raise ConstructionError("Lambda must be a Multivector")
        if Lambda.degrees() not in ([], [2]):
            raise ConstructionError("Lambda must be homogeneous of degree 2")
        self.Lambda = Lambda

    def sharp(self, theta: Form) -> Multivector:
        """Lambda#(theta) = iota_theta Lambda."""
        return interior_by_form(theta, self.Lambda)

    def sharp_matrix(self) -> List[List[Polynomial]]:
        """Matrix S with S[j][i] the e_{j+1} component of Lambda#(eps^{i+1})."""
        n = self.Lambda.rank
        coords = self.Lambda.variables
        cols = [self.sharp(Form.basis(n, coords, i)) for i in range(1, n + 1)]
        return [[cols[i].coefficient((j + 1,)) for i in range(n)] for j in range(n)]

    def validate(self, A: AlgebroidStructure) -> None:
        """Require [[Lambda, Lambda], X] = 0 for every frame section X."""
        if A.rank != self.Lambda.rank or A.coordinates != self.Lambda.variables:
            raise ConstructionError("Lambda does not live on this algebroid")
        square = A.schouten(self.Lambda, self.Lambda)
        for i in range(1, A.rank + 1):
            defect = A.schouten(square, A.basis_section(i))
            if not defect.is_zero():
                raise ConstructionError(
                    f"[[Lambda, Lambda], e[{i}]] = {defect}, not 0")

    def is_poisson(self, A: AlgebroidStructure) -> bool:
        return A.schouten(self.Lambda, self.Lambda).is_zero()


def _migrant_bracket(A: AlgebroidStructure, L: BivectorData,
                     xi: Form, theta: Form) -> Form:
    """The induced dual bracket L_{Lambda# xi} theta - iota_{Lambda# theta} d xi."""
    lead = A.lie_derivative(L.sharp(xi), theta)
    tail = interior_by_multivector(L.sharp(theta), A.differential(xi))
    return lead - tail


def _dual_structure_from_bivector(A: AlgebroidStructure, L: BivectorData) -> AlgebroidStructure:
    n, coords = A.rank, A.coordinates
    anchor = [list(A.anchor_field(L.sharp(Form.basis(n, coords, i))))
              for i in range(1, n + 1)]
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = _migrant_bracket(A, L, Form.basis(n, coords, i), Form.basis(n, coords, j))
            if out.degrees() not in ([], [1]):
                raise ConstructionError(
                    f"induced bracket of eps[{i}], eps[{j}] is not degree 1: {out}")
            brackets[(i, j)] = tuple(out.coefficient((k,)) for k in range(1, n + 1))
    return AlgebroidStructure(n, coords, anchor, brackets, "covector")


def exact_from_bivector(A: AlgebroidStructure, L: BivectorData,
                        frame: FrameData | None = None) -> BialgebroidPair:
    """Pair A with the dual structure induced by an admissible bivector.

    Tagged 'triangular' in the label when [Lambda, Lambda] = 0, else 'exact'.
    """
    if A.section_kind != "vector":
        raise ConstructionError("the input structure must have vector sections")
    L.validate(A)
    Astar = _dual_structure_from_bivector(A, L)
    tag = "triangular" if L.is_poisson(A) else "exact"
    return BialgebroidPair(A, Astar, frame, label=tag)


def exact_identities(P: BialgebroidPair, L: BivectorData) -> IdentityReport:
    """Closed-form checks available for pairs built by exact_from_bivector.

    exact/triangular-dstar runs on the generators x_a, e_i of wedge A (see
    _dstar_bracket_witness).  Every check runs on one once-per-monomial
    view of P, which dirac_square shares.
    """
    P = _once_per_monomial_view(P)
    expected = _dual_structure_from_bivector(P.A, L)
    if expected.anchor != P.Astar.anchor or expected.brackets != P.Astar.brackets:
        raise PreconditionError("pair was not built from this bivector")
    report = IdentityReport(suite="exact")
    add = report.records.append

    # boundary_star theta = -boundary(Lambda# theta) + 2 <Lambda, d theta>.  The
    # defect has order <= 1 in theta: for a function f each of its three terms
    # changes from theta to f theta by f times itself plus a vector field
    # applied to f (a_*(theta) f, a(Lambda# theta) f and <Lambda, d f ^ theta>).
    # So it fails on x_a x_b eps^j only if it fails on x_b eps^j, x_a eps^j or
    # eps^j, which come earlier: |gamma| <= 1 decides it, with the witness of
    # all |gamma| <= 2.
    wit = None
    for theta in degree1_form_probes(P, 1):
        lhs = P.boundary_star(theta).scalar_part()
        rhs = -P.boundary(L.sharp(theta)).scalar_part() \
            + 2 * pairing(P.d(theta), L.Lambda)
        if lhs != rhs:
            wit = f"theta = {theta}; boundary_* theta = {lhs}; closed form = {rhs}"
            break
    add(IdentityRecord("exact/descend", wit is None, wit))

    mod = P.modular
    closed = P.boundary(L.Lambda).scaled(2) - L.sharp(mod.xi0)
    ok = mod.x0 == closed
    add(IdentityRecord("exact/combat", ok,
                       None if ok else f"X0 = {mod.x0}; 2 boundary Lambda - Lambda# xi0 = {closed}"))

    add(_square_zero_record(P, "exact/square-zero"))

    if L.is_poisson(P.A):
        wit = _dstar_bracket_witness(P, L.Lambda)
        add(IdentityRecord("exact/triangular-dstar", wit is None, wit))

    return report


def _square_zero_record(P: BialgebroidPair, rid: str) -> IdentityRecord:
    """D^2 = 0: dirac_square finds D^2 a function, its square formula holding,
    and f~ = 0.  The witness is the first of the three that fails."""
    sq = dirac_square(P)
    ok = sq.is_scalar and sq.square_formula_ok and sq.f_tilde.is_zero()
    return IdentityRecord(rid, ok, None if ok else
                          sq.witness or sq.formula_witness or f"f~ = {sq.f_tilde}")


def _dstar_bracket_witness(P: BialgebroidPair, Lambda: Multivector) -> Optional[str]:
    """First failure of dstar u = [Lambda, u] on the generators x_a, e_i, or None.

    dstar - [Lambda, .] is a difference of two odd derivations of wedge A
    (dstar by definition, [Lambda, .] for a bivector by the graded Leibniz
    rule of the Schouten bracket), so it is one, and it vanishes iff it
    vanishes on the generators.  The witness is the one that all x^gamma e_I
    with |gamma| <= 2 would give: both operators kill 1, and a failing
    x^gamma e_I has a failing generator factor, which comes no later in
    that order: x_a no later than any x^gamma e_I that it divides, e_i no
    later than any x^gamma e_I with i in I.
    """
    for u in _generator_products(P, 1)[1:]:
        lhs = P.dstar(u)
        rhs = P.A.schouten(Lambda, u)
        if lhs != rhs:
            return f"u = {u}; dstar u = {lhs}; [Lambda, u] = {rhs}"
    return None


# -- Nijenhuis data and PN hierarchies ------------------------------------------------


class NijenhuisData:
    """A torsion-free endomorphism of the frame, as an n x n matrix.

    matrix[i][j] is the e_{i+1} component of N(e_{j+1}); the dual action
    on forms is by the transpose.
    """

    __slots__ = ("matrix", "rank", "variables", "_powers")

    def __init__(self, matrix: Sequence[Sequence], variables: Sequence[str]):
        coords = tuple(variables)
        rows = [tuple(_coerce_poly(v, coords) for v in row) for row in matrix]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ConstructionError("N must be a square matrix")
        self.matrix = tuple(rows)
        self.rank = n
        self.variables = coords
        self._powers = [identity_matrix(n, coords)]  # N^0, N^1, ... as built so far

    def power(self, l: int) -> List[List[Polynomial]]:
        """N^l, built once per instance: N^j is N^(j-1) N, so the first call
        for l makes at most l matrix products and a repeated call none.  The
        matrices are shared between calls; do not change them in place."""
        if l < 0:
            raise ConstructionError(f"N^{l}: the index is negative")
        if l >= len(self._powers):
            self._check_power(l)
            while len(self._powers) <= l:
                self._powers.append(matrix_product(self._powers[-1], self.matrix, self.variables))
        return self._powers[l]

    def _check_power(self, l: int) -> None:
        """Raise ConstructionError if N^l may pass a ring._MAX_POWER_* bound,
        before anything is multiplied.

        l is an exponent, so it may not pass the degree bound either; that
        also keeps the l matrix products of power short.  An entry of N^l is
        a sum of products of l entries of N, so its degree is at most l times
        the largest entry degree, and its monomials are products of l of the
        t distinct monomials of N, at most C(t + l - 1, l) of them.  With q
        the common denominator of N's coefficients and s the sum of the
        |q c| over them, its numerators are at most s^l and its denominators
        divide q^l, so l times the bit length of max(s, q) bounds its bits.
        """
        if l > _MAX_POWER_DEGREE:
            raise ConstructionError(f"N^{l}: the index exceeds {_MAX_POWER_DEGREE}")
        entries = [p for row in self.matrix for p in row]
        monomials = {e for p in entries for e in p.terms}
        coeffs = [c for p in entries for c in p.terms.values()]
        q = math.lcm(*(c.denominator for c in coeffs))
        s = sum(abs(c.numerator) * (q // c.denominator) for c in coeffs)
        degree = max((p.total_degree() for p in entries), default=0)
        if l * degree > _MAX_POWER_DEGREE:
            raise ConstructionError(f"N^{l} may exceed total degree {_MAX_POWER_DEGREE}")
        if len(monomials) > 1 and math.comb(len(monomials) + l - 1, l) > _MAX_POWER_TERMS:
            raise ConstructionError(
                f"N^{l} of {len(monomials)} monomials may exceed {_MAX_POWER_TERMS} terms")
        if l * max(s, q).bit_length() > _MAX_POWER_BITS:
            raise ConstructionError(f"N^{l} may exceed {_MAX_POWER_BITS} coefficient bits")

    def trace_power(self, l: int) -> Polynomial:
        mat = self.power(l)
        acc = Polynomial.zero(self.variables)
        for i in range(self.rank):
            acc = acc + mat[i][i]
        return acc

    def apply(self, u: Multivector, l: int = 1) -> Multivector:
        """N^l on a degree-1 multivector, componentwise."""
        return self._act(self.power(l), u)

    def dual_apply(self, theta: Form, l: int = 1) -> Form:
        """(N*)^l on a degree-1 form: apply's loop on the transpose of N^l."""
        return self._act(list(zip(*self.power(l))), theta)

    def _act(self, mat, u):
        """The matrix mat on the components of a degree-1 element u."""
        if u.degrees() not in ([], [1]):
            raise ConstructionError("N acts on degree-1 sections")
        column = [[u.coefficient((j + 1,))] for j in range(self.rank)]
        image = matrix_product(mat, column, self.variables)
        return type(u)(u.rank, u.variables, {(i + 1,): p for i, (p,) in enumerate(image)})

    def validate(self, A: AlgebroidStructure) -> None:
        """Vanishing torsion [NX,NY] - N([NX,Y] + [X,NY] - N[X,Y]) on basis pairs."""
        if A.rank != self.rank or A.coordinates != self.variables:
            raise ConstructionError("N does not act on this algebroid")
        for i in range(1, A.rank + 1):
            for j in range(i + 1, A.rank + 1):
                x, y = A.basis_section(i), A.basis_section(j)
                nx, ny = self.apply(x), self.apply(y)
                torsion = A.schouten(nx, ny) - self.apply(
                    A.schouten(nx, y) + A.schouten(x, ny) - self.apply(A.schouten(x, y)))
                if not torsion.is_zero():
                    raise ConstructionError(
                        f"Nijenhuis torsion on (e[{i}], e[{j}]) is {torsion}, not 0")

    def is_scalar_multiple(self) -> bool:
        diag = self.matrix[0][0]
        for i in range(self.rank):
            for j in range(self.rank):
                want = diag if i == j else Polynomial.zero(self.variables)
                if self.matrix[i][j] != want:
                    return False
        return True


def _deformed_structure(A: AlgebroidStructure, N: NijenhuisData, l: int) -> AlgebroidStructure:
    """A_l: bracket [N^l X, Y] + [X, N^l Y] - N^l [X, Y], anchor a o N^l."""
    if l == 0:
        return A
    n, coords = A.rank, A.coordinates
    anchor = [list(A.anchor_field(N.apply(A.basis_section(i), l)))
              for i in range(1, n + 1)]
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            x, y = A.basis_section(i), A.basis_section(j)
            out = A.schouten(N.apply(x, l), y) + A.schouten(x, N.apply(y, l)) \
                - N.apply(A.schouten(x, y), l)
            brackets[(i, j)] = tuple(out.coefficient((k,)) for k in range(1, n + 1))
    return AlgebroidStructure(n, coords, anchor, brackets, "vector")


def _shifted_bivector(A: AlgebroidStructure, N: NijenhuisData, L: BivectorData,
                      k: int) -> BivectorData:
    """Lambda_k with Lambda_k# = N^k o Lambda#; requires the result to be skew."""
    n, coords = A.rank, A.coordinates
    S = L.sharp_matrix()
    Sk = matrix_product(N.power(k), S, coords)
    asym = first_non_skew(Sk)
    if asym is not None:
        raise ConstructionError(
            f"N^{k} o Lambda# is not skew at ({asym[0] + 1}, {asym[1] + 1})")
    terms = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            coeff = Sk[j - 1][i - 1]
            if not coeff.is_zero():
                terms[(i, j)] = coeff
    return BivectorData(Multivector(n, coords, terms))


def _check_pn_compatibility(A: AlgebroidStructure, N: NijenhuisData, L: BivectorData) -> None:
    N.validate(A)
    L.validate(A)
    if not L.is_poisson(A):
        raise ConstructionError(
            f"[Lambda, Lambda] = {A.schouten(L.Lambda, L.Lambda)}, not 0")
    n, coords = A.rank, A.coordinates
    S = L.sharp_matrix()
    lhs = matrix_product(S, list(zip(*N.matrix)), coords)
    rhs = matrix_product(N.matrix, S, coords)
    for i in range(n):
        for j in range(n):
            if lhs[i][j] != rhs[i][j]:
                raise ConstructionError(
                    f"Lambda# N* != N Lambda# at ({i + 1}, {j + 1}): "
                    f"{lhs[i][j]} vs {rhs[i][j]}")
    # bracket compatibility on frame pairs; with matching anchors this
    # extends to all sections by tensoriality of the difference
    L1 = _shifted_bivector(A, N, L, 1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            xi, th = Form.basis(n, coords, i), Form.basis(n, coords, j)
            direct = _migrant_bracket(A, L1, xi, th)
            deformed = _migrant_bracket(A, L, N.dual_apply(xi), th) \
                + _migrant_bracket(A, L, xi, N.dual_apply(th)) \
                - N.dual_apply(_migrant_bracket(A, L, xi, th))
            if direct != deformed:
                raise ConstructionError(
                    f"deformed dual brackets disagree on (eps[{i}], eps[{j}]): "
                    f"{direct} vs {deformed}")


def pn_hierarchy(A: AlgebroidStructure, N: NijenhuisData, L: BivectorData,
                 k: int, l: int, frame: FrameData | None = None) -> BialgebroidPair:
    """The pair (A_l, A*_k) of a compatible Poisson-Nijenhuis triple."""
    if k < 0 or l < 0:
        raise ConstructionError("hierarchy indices must be nonnegative")
    _check_pn_compatibility(A, N, L)
    Al = _deformed_structure(A, N, l)
    Lk = _shifted_bivector(A, N, L, k)
    Astar = _dual_structure_from_bivector(A, Lk)
    return BialgebroidPair(Al, Astar, frame, label=f"pn-l{l}-k{k}")


def pn_identities(A: AlgebroidStructure, N: NijenhuisData, L: BivectorData,
                  k: int = 1, l: int = 1) -> IdentityReport:
    """Hierarchy identities for a compatible Poisson-Nijenhuis triple, read
    off the modular cocycles of A and of the one pair (A_l, A*_k) that
    pn_hierarchy builds and checks: X_k is that pair's X_0."""
    n, coords = A.rank, A.coordinates
    frame = FrameData(n, coords)
    P = pn_hierarchy(A, N, L, k, l, frame)
    report = IdentityReport(suite="pn")
    add = report.records.append

    xi0 = _modular_class(A, frame)
    shifted = [_shifted_bivector(A, N, L, step) for step in range(4)]

    # xi_l = d(trace N^l) + (N*)^l xi0, with d and xi0 of the undeformed side
    wit = None
    for step in (1, 2, 3):
        xi_l = _modular_class(_deformed_structure(A, N, step), frame)
        closed = A.differential(Form.scalar(n, coords, N.trace_power(step))) \
            + N.dual_apply(xi0, step)
        if xi_l != closed:
            wit = f"l = {step}; xi_l = {xi_l}; closed form = {closed}"
            break
    add(IdentityRecord("pn/scene", wit is None, wit))

    # N boundary Lambda_{l-1} - boundary Lambda_l = (1/2l) Lambda#(d trace N^l)
    for step in (1, 2, 3):
        lhs = N.apply(bv_boundary(A, frame, shifted[step - 1].Lambda)) \
            - bv_boundary(A, frame, shifted[step].Lambda)
        dtrace = A.differential(Form.scalar(n, coords, N.trace_power(step)))
        rhs = L.sharp(dtrace).scaled(Fraction(1, 2 * step))
        ok = lhs == rhs
        add(IdentityRecord(f"pn/primaries-l{step}", ok,
                           None if ok else f"lhs = {lhs}; rhs = {rhs}"))

    # X_k = 2 boundary Lambda_k - Lambda_k#(xi_0)
    Lk = shifted[k] if k < len(shifted) else _shifted_bivector(A, N, L, k)
    x_k = P.modular.x0
    closed = bv_boundary(A, frame, Lk.Lambda).scaled(2) - Lk.sharp(xi0)
    ok = x_k == closed
    add(IdentityRecord("pn/legality", ok,
                       None if ok else f"X_k = {x_k}; closed form = {closed}"))

    # d (N*)^l xi0 = 0, the morphism property applied to the closed cocycle
    wit = None
    for step in (1, 2, 3):
        out = A.differential(N.dual_apply(xi0, step))
        if not out.is_zero():
            wit = f"l = {step}; d (N*)^l xi0 = {out}"
            break
    add(IdentityRecord("pn/morphism", wit is None, wit))

    add(_square_zero_record(P, "pn/square-zero"))

    return report


def pn_desk_instance() -> Tuple[AlgebroidStructure, NijenhuisData, BivectorData]:
    """Deterministic small search for a nontrivial compatible triple on R^3.

    Candidates are diagonal N with entries in (1, x1, x2, x3) over the
    tangent structure with Lambda = e1 ^ e2; the first candidate that is
    torsion-free and compatible, is not a scalar multiple of the
    identity, and moves Lambda# is returned.
    """
    coords = ("x1", "x2", "x3")
    A = tangent_algebroid(coords)
    L = BivectorData(Multivector.monomial(3, coords, (1, 2), Polynomial.const(coords, 1)))
    pool = [Polynomial.const(coords, 1)] + [Polynomial.variable(coords, v) for v in coords]
    for entries in itertools.product(pool, repeat=3):
        zero = Polynomial.zero(coords)
        N = NijenhuisData([[entries[i] if i == j else zero for j in range(3)]
                           for i in range(3)], coords)
        if N.is_scalar_multiple():
            continue
        try:
            _check_pn_compatibility(A, N, L)
            moved = _shifted_bivector(A, N, L, 1)
        except ConstructionError:
            continue
        if moved.Lambda == L.Lambda:
            continue
        return A, N, L
    raise ConstructionError("no compatible instance in the search window")


# -- the rank-2 family over a point ----------------------------------------------------


def a_plus_b(a, b, c, d) -> BialgebroidPair:
    """Rank-2 pair over a point: [e1,e2] = a e1 + b e2, [eps1,eps2] = c eps1 + d eps2."""
    coords: Tuple[str, ...] = ()
    pa, pb, pc, pd = (Polynomial.const(coords, v) for v in (a, b, c, d))
    A = AlgebroidStructure(2, coords, [[], []], {(1, 2): (pa, pb)}, "vector")
    Astar = AlgebroidStructure(2, coords, [[], []], {(1, 2): (pc, pd)}, "covector")
    return BialgebroidPair(A, Astar, label="a-plus-b")


# -- Poisson doubles -------------------------------------------------------------------


class PoissonManifoldData:
    """A polynomial Poisson bivector on R^m, held as a skew matrix."""

    __slots__ = ("base_dim", "coordinates", "pi_components")

    def __init__(self, base_dim: int, pi_components: Sequence[Sequence],
                 coordinates: Sequence[str] | None = None):
        if base_dim < 0:
            raise ConstructionError("base_dim must be nonnegative")
        # the shape first: it costs only the size of the given matrix, while
        # the names below cost base_dim
        rows = [tuple(row) for row in pi_components]
        if len(rows) != base_dim or any(len(r) != base_dim for r in rows):
            raise ConstructionError("pi must be an m x m matrix")
        if coordinates is None:
            coordinates = tuple(f"x{i}" for i in range(1, base_dim + 1))
        coords = tuple(coordinates)
        if len(coords) != base_dim:
            raise ConstructionError("coordinate count must equal base_dim")
        rows = [tuple(_coerce_poly(v, coords) for v in row) for row in rows]
        asym = first_non_skew(rows)
        if asym is not None:
            raise ConstructionError(f"pi is not skew at ({asym[0] + 1}, {asym[1] + 1})")
        self.base_dim = base_dim
        self.coordinates = coords
        self.pi_components = tuple(rows)
        square = tangent_algebroid(coords).schouten(self.pi_multivector(), self.pi_multivector())
        if not square.is_zero():
            raise ConstructionError(f"[pi, pi] = {square}, not 0")

    def pi_multivector(self) -> Multivector:
        terms = {}
        for i in range(1, self.base_dim + 1):
            for j in range(i + 1, self.base_dim + 1):
                coeff = self.pi_components[i - 1][j - 1]
                if not coeff.is_zero():
                    terms[(i, j)] = coeff
        return Multivector(self.base_dim, self.coordinates, terms)

    def modular_field(self) -> Multivector:
        """X_Omega with components X(x_j) = sum_k d_k pi^{jk}."""
        terms = {}
        for j, row in enumerate(self.pi_components, start=1):
            div = divergence(row, self.coordinates)
            if not div.is_zero():
                terms[(j,)] = div
        return Multivector(self.base_dim, self.coordinates, terms)


def poisson_double(Pm: PoissonManifoldData, frame: FrameData | None = None) -> BialgebroidPair:
    """Tangent/cotangent pair of a Poisson structure: the triangular pair of
    pi on TR^m, with dual anchor pi# and dual bracket [eps^i, eps^j] =
    sum_k (d_k pi^{ij}) eps^k.  Pm has checked [pi, pi] = 0 already, so
    this skips exact_from_bivector's check."""
    A = tangent_algebroid(Pm.coordinates)
    Astar = _dual_structure_from_bivector(A, BivectorData(Pm.pi_multivector()))
    return BialgebroidPair(A, Astar, frame, label="poisson-double")


def poisson_homology_check(Pm: PoissonManifoldData) -> IdentityReport:
    """Graded-commutator identities of the tangent/cotangent pair.

    Over wedge A* = Poly[x] (x) Lambda[eps], boundary_* is a BV operator and
    iota_pi a composite of two contractions, both of order 2, d, iota_X and
    L_X are derivations, and the Laplacians have order 2.  So each operator
    identity has a defect of order <= 2 and runs on the products of at most
    two generators (retyped for forms), with the witness of all x^gamma e_I,
    |gamma| <= 2, by the sub-product argument of dirac_square.  poisson/d-pi
    is exact/triangular-dstar for pi.
    """
    P = _once_per_monomial_view(poisson_double(Pm))
    pi = Pm.pi_multivector()
    x_omega = Pm.modular_field()
    report = IdentityReport(suite="poisson")
    add = report.records.append

    def del_pi(theta: Form) -> Form:
        return interior_by_multivector(pi, P.d(theta)) - P.d(interior_by_multivector(pi, theta))

    probes_m = _generator_products(P, 2)
    probes_f = [retype(u) for u in probes_m]

    ok = P.modular.x0 == x_omega.scaled(2)
    add(IdentityRecord("poisson/modular-factor", ok,
                       None if ok else f"X0 = {P.modular.x0}; 2 X_Omega = {x_omega.scaled(2)}"))

    wit = None
    for th in probes_f:
        lhs = P.boundary_star(th)
        rhs = del_pi(th) + interior_by_multivector(x_omega, th)
        if lhs != rhs:
            wit = f"theta = {th}; boundary_* = {lhs}; commutator form = {rhs}"
            break
    add(IdentityRecord("poisson/boundary-star", wit is None, wit))

    wit = None
    for th in probes_f:
        lhs = laplacian(P, th)
        rhs = P.A.lie_derivative(x_omega, th)
        if lhs != rhs:
            wit = f"theta = {th}; Lap* = {lhs}; L_X = {rhs}"
            break
    add(IdentityRecord("poisson/laplacian-star-lie", wit is None, wit))

    wit = None
    for u in probes_m:
        lhs = laplacian(P, u)
        rhs = P.A.schouten(x_omega, u)
        if lhs != rhs:
            wit = f"u = {u}; Lap = {lhs}; L_X = {rhs}"
            break
    add(IdentityRecord("poisson/laplacian-lie", wit is None, wit))

    wit = _dstar_bracket_witness(P, pi)
    add(IdentityRecord("poisson/d-pi", wit is None, wit))

    return report


# -- incompatible pairs for converse testing ----------------------------------------------


def find_counterexample_pairs(count: int = 2) -> List[BialgebroidPair]:
    """Deterministic sweep for dual pairs of valid rank-3 Lie algebras over a
    point that are NOT bialgebroids.

    The primal side is fixed at [e1, e2] = e3; dual structure constants
    range over {-1, 0, 1}. Returned pairs pass both algebroid validations
    but fail the compatibility condition.
    """
    coords: Tuple[str, ...] = ()
    c1 = Polynomial.const(coords, 1)
    A = AlgebroidStructure(3, coords, [[], [], []],
                           {(1, 2): (Polynomial.zero(coords), Polynomial.zero(coords), c1)},
                           "vector")
    found: List[BialgebroidPair] = []
    for signs in itertools.product((-1, 0, 1), repeat=9):
        if not any(signs):
            continue
        consts = [Polynomial.const(coords, v) for v in signs]
        brackets = {key: tuple(consts[3 * slot: 3 * slot + 3])
                    for slot, key in enumerate(((1, 2), (1, 3), (2, 3)))}
        try:
            Astar = AlgebroidStructure(3, coords, [[], [], []], brackets, "covector")
            P = BialgebroidPair(A, Astar, label=f"counterexample-{len(found) + 1}")
        except AlgebroidError:
            continue
        if not is_lie_bialgebroid(P).passed:
            found.append(P)
            if len(found) >= count:
                break
    return found
