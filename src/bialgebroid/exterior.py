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
from functools import lru_cache
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


# The sign rules depend on index tuples alone, so their values are kept
# across calls, as they depend on no pair; algebroid.FrameTable lists every
# store that outlives a call.  2^14 entries hold every pair of index tuples
# up to rank 7, and the bound keeps a document of larger rank from growing
# the table without limit.
_SIGN_CACHE = 1 << 14


@lru_cache(maxsize=_SIGN_CACHE)
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


@lru_cache(maxsize=_SIGN_CACHE)
def _contract_sign(dual: Index, target: Index):
    """Sign and leftover tuple for contracting the dual monomial into target.

    Factors of the dual monomial contract one at a time, first factor
    first, each taking the first slot of what remains of the target.
    Returns None when some dual index is missing from the target.
    """
    if len(dual) > len(target):
        return None
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


def _accumulate(out: Dict[Index, Polynomial], key: Index, poly: Polynomial) -> None:
    """Add poly to out[key], dropping the key when the sum is zero."""
    s = out.get(key)
    s = poly if s is None else s + poly
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def _signed_product(left: "GradedElement", right: "GradedElement", rule, result_cls):
    """The sum of sign * p * q x_K over the terms p x_I of left and q x_J of
    right, where rule(I, J) gives (sign, K), or None for a vanishing product:
    _merge_sign for the wedge, _contract_sign for the interior product.  The
    result is a result_cls in right's rank and variable context."""
    out: Dict[Index, Polynomial] = {}
    for i1, p1 in left.terms.items():
        for i2, p2 in right.terms.items():
            hit = rule(i1, i2)
            if hit is not None:
                q = p1 * p2
                _accumulate(out, hit[1], q if hit[0] > 0 else -q)
    return result_cls._raw(right.rank, right.variables, out)


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
                _accumulate(clean, index, poly)
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
            _accumulate(out, ix, p)
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
        return _signed_product(self, other, _merge_sign, type(self))

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
    return _signed_product(dual, target, _contract_sign, result_cls)


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


def _complement(element: GradedElement, result_cls, sign) -> GradedElement:
    """sum_I sign(|I|) p_I iota_{x_I} top over the terms p_I x_I of element,
    as a result_cls: each x_I contracts into the top monomial x_1 ^ .. ^ x_n
    of the other frame (_contract_sign), and sign(k) is +1 or -1.  Since
    I -> complement of I is one to one, no two terms meet."""
    top = tuple(range(1, element.rank + 1))
    out = {}
    for index, p in element.terms.items():
        s, rest = _contract_sign(index, top)
        out[rest] = p if s * sign(len(index)) > 0 else -p
    return result_cls._raw(element.rank, element.variables, out)


def _plus(k: int) -> int:
    return 1


def _inverse_sign(frame: FrameData):
    """The sign (-1)^{(n-j)(n-1)} of V# o Omega# = (-1)^{k(n-1)} id, undone
    on a degree-j input."""
    n = frame.rank
    return lambda j: -1 if ((n - j) * (n - 1)) & 1 else 1


def _sharp(frame: FrameData, element, cls, result_cls, sign, name: str):
    if not isinstance(element, cls):
        raise ExteriorError(f"{name} expects a {cls.__name__}")
    if element.rank != frame.rank or element.variables != frame.variables:
        raise ExteriorError("rank or variable context mismatch")
    return _complement(element, result_cls, sign)


def omega_sharp(frame: FrameData, u: Multivector) -> Form:
    """Omega-flat contraction u -> iota_u omega."""
    return _sharp(frame, u, Multivector, Form, _plus, "omega_sharp")


def v_sharp(frame: FrameData, theta: Form) -> Multivector:
    """V-flat contraction theta -> iota_theta vee."""
    return _sharp(frame, theta, Form, Multivector, _plus, "v_sharp")


def inverse_omega_sharp(frame: FrameData, phi: Form) -> Multivector:
    """Inverse of omega_sharp, using V# o Omega# = (-1)^{k(n-1)} id degreewise."""
    return _sharp(frame, phi, Form, Multivector, _inverse_sign(frame), "inverse_omega_sharp")


def inverse_v_sharp(frame: FrameData, u: Multivector) -> Form:
    """Inverse of v_sharp, using Omega# o V# = (-1)^{k(n-1)} id degreewise."""
    return _sharp(frame, u, Multivector, Form, _inverse_sign(frame), "inverse_v_sharp")
