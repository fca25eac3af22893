"""Sparse exterior algebra over a free module with polynomial coefficients.

Multivector represents sections of wedge powers of a rank-n module spanned
by e_1..e_n; Form represents the dual side spanned by eps^1..eps^n.  Both
store {strictly increasing 1-based index tuple -> Polynomial} and may mix
degrees.  The two classes share all structure but cannot be combined by
wedge or addition, which catches most frame-confusion bugs at the type
level.

Sign conventions, fixed once and tested against the contraction/sign
oracle suite:

* pairing is the determinant pairing, <eps^J, e_I> = delta_{IJ} on sorted
  index tuples;
* interior product contracts the FIRST slot,
  iota_{e_i}(eps^{j_1} ^ ... ^ eps^{j_k}) = sum_t (-1)^(t-1) delta_{i,j_t} (drop slot t),
  and composes first-wedge-factor-first:
  iota_{alpha ^ beta} = iota_beta o iota_alpha.
  The opposite composition order fails the top-contraction sign oracle
  already at rank 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Tuple

from .ring import Polynomial

Index = Tuple[int, ...]


class ExteriorError(ValueError):
    pass


def _check_index(index: Iterable[int], rank: int) -> Index:
    index = tuple(index)
    for a, b in zip(index, index[1:]):
        if a >= b:
            raise ExteriorError(f"index tuple {index!r} is not strictly increasing")
    if index and (index[0] < 1 or index[-1] > rank):
        raise ExteriorError(f"index tuple {index!r} out of range for rank {rank}")
    return index


def _merge_sign(left: Index, right: Index):
    """Sign and merged tuple for e_left ^ e_right, or None if they overlap."""
    if set(left) & set(right):
        return None
    sign = 1
    for j in right:
        bigger = sum(1 for i in left if i > j)
        if bigger & 1:
            sign = -sign
    return sign, tuple(sorted(left + right))


def _contract_sign(dual: Index, target: Index):
    """Sign and leftover tuple for contracting the dual monomial into target.

    Factors of the dual monomial contract one at a time, first factor
    first, each taking the first slot of what remains of the target.
    Returns None when some dual index is missing from the target.
    """
    remaining = list(target)
    sign = 1
    for j in dual:
        try:
            t = remaining.index(j)
        except ValueError:
            return None
        if t & 1:
            sign = -sign
        remaining.pop(t)
    return sign, tuple(remaining)


class GradedElement:
    """Shared implementation behind Multivector and Form."""

    __slots__ = ("rank", "variables", "terms")
    basis_symbol = "?"

    def __init__(self, rank: int, variables, terms: Dict[Index, Polynomial] | None = None):
        self.rank = int(rank)
        self.variables = tuple(variables)
        clean: Dict[Index, Polynomial] = {}
        if terms:
            for index, poly in terms.items():
                index = _check_index(index, self.rank)
                if poly.variables != self.variables:
                    raise ExteriorError(
                        f"coefficient context {poly.variables!r} does not match {self.variables!r}")
                if poly.is_zero():
                    continue
                if index in clean:
                    s = clean[index] + poly
                    if s.is_zero():
                        del clean[index]
                    else:
                        clean[index] = s
                else:
                    clean[index] = poly
        self.terms = clean

    @classmethod
    def _raw(cls, rank, variables, terms):
        self = object.__new__(cls)
        self.rank = rank
        self.variables = variables
        self.terms = terms
        return self

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, rank: int, variables):
        return cls._raw(int(rank), tuple(variables), {})

    @classmethod
    def scalar(cls, rank: int, variables, value):
        """Degree-0 element from a Polynomial, Fraction, or int."""
        variables = tuple(variables)
        if not isinstance(value, Polynomial):
            value = Polynomial.const(variables, value)
        if value.is_zero():
            return cls._raw(int(rank), variables, {})
        return cls._raw(int(rank), variables, {(): value})

    @classmethod
    def basis(cls, rank: int, variables, i: int):
        variables = tuple(variables)
        index = _check_index((i,), rank)
        return cls._raw(int(rank), variables, {index: Polynomial.const(variables, 1)})

    @classmethod
    def monomial(cls, rank: int, variables, index, coefficient):
        variables = tuple(variables)
        if not isinstance(coefficient, Polynomial):
            coefficient = Polynomial.const(variables, coefficient)
        return cls(rank, variables, {tuple(index): coefficient})

    # -- structure -----------------------------------------------------

    def _check_compatible(self, other: "GradedElement"):
        if type(self) is not type(other):
            raise ExteriorError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.rank != other.rank or self.variables != other.variables:
            raise ExteriorError("rank or variable context mismatch")

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self):
        return sorted({len(ix) for ix in self.terms})

    def max_degree(self) -> int:
        return max((len(ix) for ix in self.terms), default=0)

    def homogeneous(self, k: int):
        return type(self)._raw(
            self.rank, self.variables,
            {ix: p for ix, p in self.terms.items() if len(ix) == k})

    def coefficient(self, index) -> Polynomial:
        index = _check_index(index, self.rank)
        return self.terms.get(index, Polynomial.zero(self.variables))

    def scalar_part(self) -> Polynomial:
        return self.terms.get((), Polynomial.zero(self.variables))

    # -- linear operations ----------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for ix, p in other.terms.items():
            s = out.get(ix)
            s = p if s is None else s + p
            if s.is_zero():
                out.pop(ix, None)
            else:
                out[ix] = s
        return type(self)._raw(self.rank, self.variables, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)._raw(self.rank, self.variables,
                               {ix: -p for ix, p in self.terms.items()})

    def scaled(self, factor):
        """Multiply every coefficient by a Polynomial, Fraction, or int."""
        if not isinstance(factor, Polynomial):
            if isinstance(factor, (int, Fraction)):
                if not factor:
                    return type(self)._raw(self.rank, self.variables, {})
                return type(self)._raw(self.rank, self.variables,
                                       {ix: p * factor for ix, p in self.terms.items()})
            raise ExteriorError(f"cannot scale by {type(factor).__name__}")
        if factor.variables != self.variables:
            raise ExteriorError("variable context mismatch in scaling")
        out = {}
        for ix, p in self.terms.items():
            q = p * factor
            if not q.is_zero():
                out[ix] = q
        return type(self)._raw(self.rank, self.variables, out)

    def __mul__(self, factor):
        return self.scaled(factor)

    __rmul__ = __mul__

    # -- wedge ----------------------------------------------------------

    def wedge(self, other: "GradedElement"):
        self._check_compatible(other)
        out: Dict[Index, Polynomial] = {}
        for i1, p1 in self.terms.items():
            for i2, p2 in other.terms.items():
                merged = _merge_sign(i1, i2)
                if merged is None:
                    continue
                sign, key = merged
                q = p1 * p2
                if sign < 0:
                    q = -q
                s = out.get(key)
                s = q if s is None else s + q
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return type(self)._raw(self.rank, self.variables, out)

    # -- comparison and printing ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return (type(self) is type(other) and self.rank == other.rank
                and self.variables == other.variables and self.terms == other.terms)

    def __hash__(self):
        return hash((type(self).__name__, self.rank, self.variables,
                     frozenset((ix, str(p)) for ix, p in self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for ix in sorted(self.terms, key=lambda t: (len(t), t)):
            p = self.terms[ix]
            if not ix:
                pieces.append(f"({p})")
                continue
            name = f"{self.basis_symbol}[{','.join(map(str, ix))}]"
            if p == Polynomial.const(self.variables, 1):
                pieces.append(name)
            else:
                pieces.append(f"({p})*{name}")
        return " + ".join(pieces)

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"


class Multivector(GradedElement):
    """Section of the exterior algebra of the module itself (e-frame)."""

    basis_symbol = "e"


class Form(GradedElement):
    """Section of the exterior algebra of the dual module (eps-frame)."""

    basis_symbol = "eps"


def retype(element: GradedElement) -> GradedElement:
    """The same terms read in the other frame: Multivector <-> Form.

    Zero-copy: the result shares the terms dict, which is safe because no
    operation mutates terms in place.
    """
    cls = Form if isinstance(element, Multivector) else Multivector
    return cls._raw(element.rank, element.variables, element.terms)


def monomials(element: GradedElement):
    """The terms c x^gamma e_I of element as ((class, I, gamma), c) pairs.

    The key names the monomial together with its class, as the
    once-per-monomial wrappers store images; unit_monomial turns a key back
    into the element.
    """
    cls = type(element)
    return [((cls, index, exps), c)
            for index, poly in element.terms.items() for exps, c in poly.terms.items()]


def unit_monomial(rank: int, variables, key) -> GradedElement:
    """The element x^gamma e_I, coefficient 1, named by key = (class, I, gamma)."""
    cls, index, exps = key
    return cls._raw(rank, variables, {index: Polynomial._raw(variables, {exps: Fraction(1)})})


def weighted_sum(pieces):
    """sum c * image over a nonempty list of (c, image) pairs, c a Fraction.

    The images share one type, rank and variable context, which the result
    takes.  This is how a once-per-monomial wrapper assembles its value
    from the stored images of the input's monomials.
    """
    if len(pieces) == 1:
        (c, found), = pieces
        return found if c == 1 else found.scaled(c)
    acc: Dict[Index, Dict[tuple, Fraction]] = {}
    for c, found in pieces:
        for ix, p in found.terms.items():
            slot = acc.setdefault(ix, {})
            for e, v in p.terms.items():
                s = slot.get(e, 0) + c * v
                if s:
                    slot[e] = s
                else:
                    del slot[e]
    out_vars = found.variables
    return type(found)._raw(found.rank, out_vars,
                            {ix: Polynomial._raw(out_vars, slot)
                             for ix, slot in acc.items() if slot})


def once_per_monomial(op):
    """Wrap an additive operator so that it is applied once per monomial x^gamma e_I.

    op must be additive, commute with constant scaling and keep its input's
    class, as D, d, d_*, the boundaries and the Laplacians do; it need not
    be C-infinity-linear, so an image is stored under the element's class,
    index I and exponent gamma together, never under I alone.  Every other
    input is then the Fraction-weighted sum of the stored images of its
    monomials, which is exactly op(input).  The inputs must share one
    rank and variable context, as they do inside one computation on one
    pair.  A zero input is returned as it is, the zero of its class,
    without calling op, as in once_per_monomial_pair.  The images live as
    long as the returned callable, so build one inside each computation and
    let it go on return.
    """
    images = {}

    def apply(element):
        if not element.terms:
            return element
        pieces = []
        for key, c in monomials(element):
            found = images.get(key)
            if found is None:
                found = images[key] = op(unit_monomial(element.rank, element.variables, key))
            pieces.append((c, found))
        return weighted_sum(pieces)

    return apply


def once_per_monomial_pair(op):
    """Wrap a two-slot operator so that it is applied once per pair of monomials.

    op(x, t) must be additive in each slot and commute with constant scaling
    there, as a Lie derivative L_x t and the Dorfman bracket x o t do; it need
    not be C-infinity-linear in either slot, so an image is stored under the
    (class, I, gamma) of both slots, never under the indices alone.  A slot
    takes a GradedElement or a tuple of them read as their sum (the two parts
    of a section of the double).  op sees unit monomials x^gamma e_I in both
    slots and returns a value shaped like the second slot: an element of its
    class, or a tuple with one element per part.  Every other value is the
    Fraction-weighted sum of stored images, part by part, which is exactly
    op(x, t); a zero slot gives zero without calling op.  As with
    once_per_monomial, build one inside each computation and let it go on
    return.
    """
    images = {}

    def apply(x, t):
        parts = t if isinstance(t, tuple) else (t,)
        rank, variables = parts[0].rank, parts[0].variables
        right = []
        for part in parts:
            right += monomials(part)
        pieces = []
        for part in x if isinstance(x, tuple) else (x,):
            for k1, c1 in monomials(part):
                for k2, c2 in right:
                    found = images.get((k1, k2))
                    if found is None:
                        found = images[k1, k2] = op(unit_monomial(rank, variables, k1),
                                                    unit_monomial(rank, variables, k2))
                    pieces.append((c1 * c2, found))
        if parts is not t:
            return weighted_sum(pieces) if pieces else type(t).zero(rank, variables)
        if not pieces:
            return tuple(type(part).zero(rank, variables) for part in parts)
        return tuple([weighted_sum([(c, found[i]) for c, found in pieces])
                      for i in range(len(parts))])

    return apply


def _dual_pair(theta, u):
    if theta.rank != u.rank or theta.variables != u.variables:
        raise ExteriorError("rank or variable context mismatch")


def interior_by_form(theta: Form, u: Multivector) -> Multivector:
    """iota_theta u: contract a form into a multivector, first slot first."""
    if not isinstance(theta, Form) or not isinstance(u, Multivector):
        raise ExteriorError("interior_by_form expects (Form, Multivector)")
    _dual_pair(theta, u)
    return _interior(theta, u, Multivector)


def interior_by_multivector(u: Multivector, theta: Form) -> Form:
    """iota_u theta: contract a multivector into a form, first slot first."""
    if not isinstance(u, Multivector) or not isinstance(theta, Form):
        raise ExteriorError("interior_by_multivector expects (Multivector, Form)")
    _dual_pair(u, theta)
    return _interior(u, theta, Form)


def _interior(dual: GradedElement, target: GradedElement, result_cls):
    out: Dict[Index, Polynomial] = {}
    for jx, pj in dual.terms.items():
        for kx, pk in target.terms.items():
            if len(jx) > len(kx):
                continue
            hit = _contract_sign(jx, kx)
            if hit is None:
                continue
            sign, rest = hit
            q = pj * pk
            if sign < 0:
                q = -q
            s = out.get(rest)
            s = q if s is None else s + q
            if s.is_zero():
                out.pop(rest, None)
            else:
                out[rest] = s
    return result_cls._raw(target.rank, target.variables, out)


def pairing(theta: Form, u: Multivector) -> Polynomial:
    """Determinant duality pairing, extended degreewise; mixed degrees pair to zero."""
    if not isinstance(theta, Form) or not isinstance(u, Multivector):
        raise ExteriorError("pairing expects (Form, Multivector)")
    _dual_pair(theta, u)
    total = Polynomial.zero(u.variables)
    for ix, p in theta.terms.items():
        q = u.terms.get(ix)
        if q is not None:
            total = total + p * q
    return total


@dataclass(frozen=True)
class FrameData:
    """Trivializing data: rank, base coordinates, and a constant density.

    omega is always eps^1 ^ ... ^ eps^n with coefficient 1 and vee the dual
    top multivector e_1 ^ ... ^ e_n, so <omega, vee> = 1 by construction.
    """

    rank: int
    variables: Tuple[str, ...]
    s_density: Polynomial = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        s = self.s_density
        if s is None:
            s = Polynomial.const(self.variables, 1)
            object.__setattr__(self, "s_density", s)
        if s.variables != self.variables:
            raise ExteriorError("density variable context mismatch")
        if not s.is_constant() or s.is_zero():
            raise ExteriorError("s_density must be a nonzero constant")

    @property
    def top_index(self) -> Index:
        return tuple(range(1, self.rank + 1))

    @property
    def omega(self) -> Form:
        return Form.monomial(self.rank, self.variables, self.top_index, 1)

    @property
    def vee(self) -> Multivector:
        return Multivector.monomial(self.rank, self.variables, self.top_index, 1)


def omega_sharp(frame: FrameData, u: Multivector) -> Form:
    """Omega-flat contraction u -> iota_u omega."""
    return interior_by_multivector(u, frame.omega)


def v_sharp(frame: FrameData, theta: Form) -> Multivector:
    """V-flat contraction theta -> iota_theta vee: omega_sharp with the two
    sides exchanged, since omega and vee have the same terms."""
    return retype(omega_sharp(frame, retype(theta)))


def inverse_omega_sharp(frame: FrameData, phi: Form) -> Multivector:
    """Inverse of omega_sharp, using V# o Omega# = (-1)^{k(n-1)} id degreewise."""
    n = frame.rank
    out = Multivector.zero(n, frame.variables)
    for j in phi.degrees():
        piece = v_sharp(frame, phi.homogeneous(j))
        if ((n - j) * (n - 1)) & 1:
            piece = -piece
        out = out + piece
    return out


def inverse_v_sharp(frame: FrameData, u: Multivector) -> Form:
    """Inverse of v_sharp: inverse_omega_sharp with the two sides exchanged,
    since omega and vee have the same terms."""
    return retype(inverse_omega_sharp(frame, retype(u)))
