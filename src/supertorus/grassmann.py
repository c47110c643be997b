"""Finite-dimensional real Grassmann algebra with a dual-number extension.

An element of the algebra over generators ``g0 .. g{N-1}`` is stored as a
sparse map from a generator subset (bitmask) to its coefficient.  The product
of basis monomials picks up one sign per transposition needed to interleave
the two ascending index lists, and squares of generators vanish, which is all
the structure the rest of the package relies on:

* even elements (even subset cardinality) commute with everything,
* odd elements anticommute among themselves,
* any element with vanishing empty-subset coefficient (``body``) is nilpotent.

Coefficients may be ``float`` or ``Fraction`` (the exact mode used by the
pointwise algebra suites); ``complex`` ones are accepted like any scalar,
but no layer of the package produces them.

``DualScalar`` adjoins one even deformation parameter ``eps`` with
``eps**2 = 0``; its second slot therefore carries exact first variations
through arbitrary algebra without any differencing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


class GeneratorMismatch(ValueError):
    """Two elements over different generator counts were combined."""


class NoBody(ZeroDivisionError):
    """Inversion was requested for an element with no scalar part."""


_SCALARS = (int, float, complex, Fraction)


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
    return "*".join(f"g{i}" for i in range(mask.bit_length()) if mask >> i & 1)


class GrassmannElement:
    """Sparse element of the exterior algebra over ``gens`` generators.

    Values are immutable by convention: no method mutates ``coeffs`` after
    construction, so elements can be shared freely across threads.
    """

    __slots__ = ("gens", "coeffs")

    def __init__(self, gens: int, coeffs: Mapping[int, object] | None = None,
                 drop_tol: float = 0.0):
        if not 0 <= gens <= 16:
            raise ValueError(f"generator count must be in [0, 16], got {gens}")
        self.gens = gens
        clean: dict[int, object] = {}
        if coeffs:
            limit = 1 << gens
            for mask, c in coeffs.items():
                if not 0 <= mask < limit:
                    raise GeneratorMismatch(
                        f"monomial {mask:#x} uses generators beyond {gens}")
                if c == 0 or (drop_tol and abs(c) <= drop_tol):
                    continue
                clean[mask] = c
        self.coeffs = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, gens: int) -> "GrassmannElement":
        return cls(gens)

    @classmethod
    def scalar(cls, value, gens: int) -> "GrassmannElement":
        return cls(gens, {0: value})

    @classmethod
    def one(cls, gens: int) -> "GrassmannElement":
        return cls.scalar(1.0, gens)

    @classmethod
    def generator(cls, index: int, gens: int, coeff=1.0) -> "GrassmannElement":
        if not 0 <= index < gens:
            raise GeneratorMismatch(f"generator {index} outside budget {gens}")
        return cls(gens, {1 << index: coeff})

    @classmethod
    def monomial(cls, indices: Iterable[int], gens: int, coeff=1.0) -> "GrassmannElement":
        mask = 0
        for i in indices:
            bit = 1 << i
            if mask & bit:
                return cls.zero(gens)
            mask |= bit
        return cls(gens, {mask: coeff})

    def _lift(self, other) -> "GrassmannElement":
        if isinstance(other, GrassmannElement):
            if other.gens != self.gens:
                raise GeneratorMismatch(
                    f"generator counts differ: {self.gens} vs {other.gens}")
            return other
        if isinstance(other, _SCALARS):
            return GrassmannElement.scalar(other, self.gens)
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
        return GrassmannElement(self.gens, out)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement(self.gens, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            if other == 0:
                return GrassmannElement.zero(self.gens)
            return GrassmannElement(
                self.gens, {m: c * other for m, c in self.coeffs.items()})
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
                if mul_sign(ma, mb) < 0:
                    term = -term
                s = out.get(mask, 0) + term
                if s == 0:
                    out.pop(mask, None)
                else:
                    out[mask] = s
        return GrassmannElement(self.gens, out)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            # 1/int is kept exact; Fraction * float degrades to float as usual.
            inv = Fraction(1, other) if isinstance(other, int) else 1 / other
            return self * inv
        if isinstance(other, GrassmannElement):
            return self * other.inverse()
        return NotImplemented

    # -- structure maps ----------------------------------------------------

    @property
    def body(self):
        """Coefficient of the empty subset."""
        return self.coeffs.get(0, 0)

    @property
    def soul(self) -> "GrassmannElement":
        return GrassmannElement(
            self.gens, {m: c for m, c in self.coeffs.items() if m})

    @property
    def parity(self) -> int | None:
        """0 for even, 1 for odd, None for mixed or zero-ambiguous elements."""
        if not self.coeffs:
            return 0
        parities = {parity_of(m) for m in self.coeffs}
        return parities.pop() if len(parities) == 1 else None

    def inverse(self) -> "GrassmannElement":
        """Exact inverse; the nilpotent geometric series terminates."""
        b = self.body
        if b == 0:
            raise NoBody("element has vanishing body and is not invertible")
        inv_b = Fraction(1, b) if isinstance(b, int) else 1 / b
        u = self.soul * inv_b
        acc = GrassmannElement.scalar(inv_b, self.gens)
        term = GrassmannElement.scalar(inv_b, self.gens)
        for _ in range(self.gens + 1):
            term = -(term * u)
            if not term.coeffs:
                break
            acc = acc + term
        return acc

    # -- diagnostics ---------------------------------------------------------

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = GrassmannElement.scalar(other, self.gens)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.gens == other.gens and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.gens, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for mask in sorted(self.coeffs):
            c = self.coeffs[mask]
            parts.append(f"{c}" if mask == 0 else f"{c}*{_format_monomial(mask)}")
        return " + ".join(parts)


class DualScalar:
    """Grassmann element plus an exact first-variation slot.

    Models ``value + eps * variation`` with an *even* nilpotent parameter
    ``eps`` satisfying ``eps**2 = 0``.  Keeping ``eps`` outside the exterior
    algebra preserves the parity bookkeeping of the odd generators.
    """

    __slots__ = ("value", "variation")

    def __init__(self, value: GrassmannElement, variation: GrassmannElement | None = None):
        if not (isinstance(value, GrassmannElement)
                and isinstance(variation, (GrassmannElement, type(None)))):
            raise TypeError("DualScalar takes GrassmannElement value and variation, got "
                            f"{type(value).__name__} and {type(variation).__name__}")
        if variation is None:
            variation = GrassmannElement.zero(value.gens)
        if value.gens != variation.gens:
            raise GeneratorMismatch("value and variation use different generator counts")
        self.value = value
        self.variation = variation

    def _coerce(self, other) -> "DualScalar":
        if isinstance(other, DualScalar):
            return other
        if isinstance(other, GrassmannElement):
            return DualScalar(other)
        if isinstance(other, _SCALARS):
            return DualScalar(GrassmannElement.scalar(other, self.value.gens))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return DualScalar(self.value + other.value, self.variation + other.variation)

    __radd__ = __add__

    def __neg__(self):
        return DualScalar(-self.value, -self.variation)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return DualScalar(
            self.value * other.value,
            self.value * other.variation + self.variation * other.value,
        )

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def inverse(self) -> "DualScalar":
        inv = self.value.inverse()
        return DualScalar(inv, -(inv * (self.variation * inv)))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.value == other.value and self.variation == other.variation

    def __hash__(self):
        return hash((self.value, self.variation))

    def max_abs(self) -> float:
        return max(self.value.max_abs(), self.variation.max_abs())

    def __repr__(self):
        return f"({self.value!r}) + eps*({self.variation!r})"


def random_element(rng, gens: int, terms: int = 6, parity: int | None = None,
                   body: float | None = None, exact: bool = False) -> GrassmannElement:
    """Deterministic random element for the property suites.

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
    return GrassmannElement(gens, coeffs)
