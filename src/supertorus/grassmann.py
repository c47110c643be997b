"""Finite-dimensional real Grassmann algebra with one even nilpotent ``eps``.

The algebra has sixteen odd generators ``g0 .. g15``; a computation over
fewer of them embeds unchanged.  An element is stored as a sparse map from a
generator subset (bitmask) to its coefficient.  The product of basis
monomials picks up one sign per transposition needed to interleave
the two ascending index lists, and squares of generators vanish, which is all
the structure the rest of the package relies on:

* even elements (even subset cardinality) commute with everything,
* odd elements anticommute among themselves,
* any element with vanishing empty-subset coefficient (``body``) is nilpotent.

Bit 16 of a mask (:data:`EPS`) is one more, even, deformation parameter
``eps`` with ``eps**2 = 0``: the coefficient of ``eps * m`` sits under
``m | EPS``.  ``eps`` never contributes a sign and the overlap test makes it
square to zero, so the graded product is also the Leibniz rule, and the
``eps`` part of any result is its exact first variation, with no
differencing.  :attr:`GrassmannElement.value` and
:attr:`GrassmannElement.variation` split an element into its two parts.

Coefficients may be ``float`` or ``Fraction`` (the exact mode used by the
pointwise algebra suites); ``complex`` ones are accepted like any scalar,
but no layer of the package produces them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


class GeneratorMismatch(ValueError):
    """A monomial or generator index lies outside the sixteen generators and
    ``eps``."""


class NoBody(ZeroDivisionError):
    """Inversion was requested for an element with no scalar part."""


_SCALARS = (int, float, complex, Fraction)

# bits 0-15 are the generators, so bit 16 is free
EPS = 1 << 16


def parity_of(mask: int) -> int:
    """Parity (0 even, 1 odd) of a basis monomial given as a bitmask."""
    return mask.bit_count() & 1


def mul_sign(a: int, b: int) -> int:
    """Sign of ``monomial(a) * monomial(b)`` for disjoint masks.

    Counts, for every generator in ``a``, the generators of ``b`` that have to
    move past it (i.e. carry a smaller index).
    """
    swaps = 0
    x = a
    while x:
        low = x & -x
        swaps += ((low - 1) & b).bit_count()
        x &= x - 1
    return -1 if swaps & 1 else 1


def _format_monomial(mask: int) -> str:
    if mask == 0:
        return "1"
    names = [f"g{i}" for i in range((mask & ~EPS).bit_length()) if mask >> i & 1]
    return "*".join(names + ["eps"] if mask & EPS else names)


class GrassmannElement:
    """Sparse element of the exterior algebra over the sixteen generators,
    with ``eps`` (:data:`EPS`) adjoined.

    Values are immutable by convention: no method mutates ``coeffs`` after
    construction, so elements can be shared freely across threads.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        clean: dict[int, object] = {}
        if coeffs:
            for mask, c in coeffs.items():
                if not 0 <= mask < 2 * EPS:
                    raise GeneratorMismatch(
                        f"monomial {mask:#x} uses bits beyond the generators and eps")
                if c != 0:
                    clean[mask] = c
        self.coeffs = clean

    @classmethod
    def _made(cls, coeffs: dict) -> "GrassmannElement":
        """Element over masks and nonzero coefficients taken from a valid
        element; none of the constructor's checks run."""
        self = object.__new__(cls)
        self.coeffs = coeffs
        return self

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "GrassmannElement":
        return cls()

    @classmethod
    def scalar(cls, value) -> "GrassmannElement":
        return cls({0: value})

    @classmethod
    def one(cls) -> "GrassmannElement":
        return cls.scalar(1.0)

    @classmethod
    def generator(cls, index: int, coeff=1.0) -> "GrassmannElement":
        return cls.monomial([index], coeff)

    @classmethod
    def monomial(cls, indices: Iterable[int], coeff=1.0) -> "GrassmannElement":
        mask = 0
        for i in indices:
            # index 16 would otherwise land on the ``eps`` bit
            if not 0 <= i < 16:
                raise GeneratorMismatch(f"generator {i} outside g0 .. g15")
            bit = 1 << i
            if mask & bit:
                return cls.zero()
            mask |= bit
        return cls({mask: coeff})

    def _lift(self, other) -> "GrassmannElement":
        if isinstance(other, GrassmannElement):
            return other
        if isinstance(other, _SCALARS):
            return GrassmannElement.scalar(other)
        return NotImplemented

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            s = out.get(mask, 0) + c
            if s == 0:
                out.pop(mask, None)
            else:
                out[mask] = s
        return GrassmannElement(out)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            if other == 0:
                return GrassmannElement.zero()
            return GrassmannElement({m: c * other for m, c in self.coeffs.items()})
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, object] = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                if ma & mb:
                    continue
                mask = ma | mb
                term = ca * cb
                # eps is even and never contributes a sign; left in ``ma``
                # it would count every generator of ``mb`` as a swap
                if mul_sign(ma & ~EPS, mb) < 0:
                    term = -term
                s = out.get(mask, 0) + term
                if s == 0:
                    out.pop(mask, None)
                else:
                    out[mask] = s
        return GrassmannElement(out)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self * other
        return NotImplemented

    # -- structure maps ----------------------------------------------------

    @property
    def body(self):
        """Coefficient of the empty subset."""
        return self.coeffs.get(0, 0)

    @property
    def soul(self) -> "GrassmannElement":
        return GrassmannElement({m: c for m, c in self.coeffs.items() if m})

    @property
    def value(self) -> "GrassmannElement":
        """The ``eps``-free part."""
        return GrassmannElement._made({m: c for m, c in self.coeffs.items() if not m & EPS})

    @property
    def variation(self) -> "GrassmannElement":
        """The coefficient of ``eps``: the first variation."""
        return GrassmannElement._made(
            {m & ~EPS: c for m, c in self.coeffs.items() if m & EPS})

    @property
    def parity(self) -> int | None:
        """0 for even, 1 for odd, None for mixed or zero-ambiguous elements."""
        if not self.coeffs:
            return 0
        parities = {parity_of(m & ~EPS) for m in self.coeffs}
        return parities.pop() if len(parities) == 1 else None

    def inverse(self) -> "GrassmannElement":
        """Exact inverse; the nilpotent geometric series ends by itself,
        since every factor of the soul adds a generator or ``eps`` bit."""
        b = self.body
        if b == 0:
            raise NoBody("element has vanishing body and is not invertible")
        inv_b = Fraction(1, b) if isinstance(b, int) else 1 / b
        u = self.soul * inv_b
        acc = term = GrassmannElement.scalar(inv_b)
        while True:
            term = -(term * u)
            if not term.coeffs:
                return acc
            acc = acc + term

    # -- diagnostics ---------------------------------------------------------

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = GrassmannElement.scalar(other)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for mask in sorted(self.coeffs):
            c = self.coeffs[mask]
            parts.append(f"{c}" if mask == 0 else f"{c}*{_format_monomial(mask)}")
        return " + ".join(parts)


# the name of a former separate dual-number type, kept because
# bench/workloads.py imports it
DualScalar = GrassmannElement


def random_element(rng, gens: int, terms: int = 6, parity: int | None = None,
                   body: float | None = None, exact: bool = False) -> GrassmannElement:
    """Deterministic random element for the property suites, its monomials
    drawn from the first ``gens`` generators.

    ``rng`` is a ``numpy.random.Generator``; coefficients are uniform in
    [-1, 1] (or small exact Fractions when ``exact``).  ``parity`` restricts
    the monomials, ``body`` pins the empty-subset coefficient.
    """
    coeffs: dict[int, object] = {}
    limit = 1 << gens
    for _ in range(terms):
        mask = int(rng.integers(0, limit))
        if parity is not None and parity_of(mask) != parity:
            continue
        if exact:
            coeffs[mask] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        else:
            coeffs[mask] = float(rng.uniform(-1.0, 1.0))
    if body is not None:
        if parity in (None, 0):
            coeffs[0] = Fraction(body).limit_denominator(64) if exact else body
        else:
            coeffs.pop(0, None)
    return GrassmannElement(coeffs)
