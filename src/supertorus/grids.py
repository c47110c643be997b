"""Periodic-grid calculus for Grassmann-valued scalar fields.

A :class:`GridScalar` is a scalar field on a two-torus whose value at every
grid point lies in the ring of :mod:`grassmann`: the exterior algebra
extended by the even deformation parameter ``eps`` with ``eps**2 = 0``.  The
field is stored as one real array per monomial, under the same masks as a
:class:`GrassmannElement`: bits 0-15 are the odd generators and bit 16
(:data:`EPS`) is ``eps``, so the coefficient of ``eps * m`` sits under the
key ``m | EPS``.  Because ``eps`` is even and nilpotent, the ordinary graded
product (skip overlapping masks, take the sign of the odd generators only)
is also the Leibniz rule of the first variation, and integrals and constants
carry their masks over unchanged.  All field algebra and all derivative
engines act monomial-wise on these arrays.

Derivative engines
------------------
``spectral``
    Fourier differentiation; exact for trigonometric polynomials below the
    Nyquist frequency.  Spinor-type fields may be antiperiodic along either
    cycle, implemented by half-integer frequencies through a unit twist.
``fd2`` / ``fd4``
    Central differences of order 2/4; the discrete divergence theorem is
    exact by telescoping, the product rule only up to O(h^2)/O(h^4).

Aliasing guard
--------------
Pointwise products of sampled fields fold spectral content beyond the
Nyquist frequency back into the band.  Every field carries per-direction
spectral mass profiles (sums of absolute Fourier coefficients); a product is
legal when the convolution of the factors' profiles puts only a negligible
fraction of its mass outside the band, and raises
:class:`AliasingDetected` otherwise.  Profiles of transcendental results
(inversion, exponentials) are measured from the data; profiles of products
fold the out-of-band mass back in, so the bound stays valid along chains.

Every field also carries a per-axis ``reach``: an upper bound on the
distance, in profile bins from the centre bin ``n//2``, at which its profile
carries mass (-1 for an empty field).  Measured profiles compute it from
their nonzero bins, sums take the larger reach, negation, scaling and
derivatives keep it.  When the reaches of two factors add up to at most
``(n - 1)//2`` no bin of the convolution lies past the band (on an even
grid the +Nyquist bin would still fold onto bin 0), so the guard cannot
trip.  Profiles are nonnegative, so every bin beyond that sum is exactly
+0.0 and the fold would only add zeros.  One ``GridScalar._guard`` call
checks both axes of a product: it skips such an axis and returns the
convolution of any other, whose total mass it sums only past the 1e-14
deadband of the wrapped mass.  The product itself builds its profile: the
centre of the convolution on a skipped axis (bitwise what the fold gives,
reaching the sum), the fold of the returned one otherwise (reaching
``n//2``).  With a ``weight``, :meth:`GridScalar.integral` runs only the
check and builds no profile.

Construction invariant
----------------------
Every array a field stores is frozen (read-only), owns its data and is
nonzero somewhere.  The public constructor validates its input: mask range,
shape, a frozen owned float64 copy where needed, and zero arrays dropped.
Results of the algebra (sums, products, scalings, partials, :meth:`dual`,
negation) skip that validation and zero-test only the arrays the operation
computed; an array carried over unchanged from an operand already holds the
invariant.  The zero test reads one sample off the grid's symmetry lines
and scans the array only when it is zero, so it decides as ``arr.any()``.
A product or sum with an empty operand does no array work at
all, and :meth:`GridScalar.integral` with a ``weight`` integrates a product
without storing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Number

import numpy as np

from .grassmann import EPS, GeneratorMismatch, GrassmannElement, NoBody, mul_sign, parity_of


class ShapeMismatch(ValueError):
    """Fields over different grids (or phases) were combined."""


class AliasingDetected(ArithmeticError):
    """A product chain pushed significant spectral mass past Nyquist."""


_MODES = ("spectral", "fd2", "fd4")


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on the flat torus.

    ``spin_structure`` gives the boundary twist (0 periodic, 1 antiperiodic)
    used for spinor-valued fields along each cycle; plain scalars are always
    periodic.
    """

    shape: tuple[int, int]
    periods: tuple[float, float] = (1.0, 1.0)
    mode: str = "spectral"
    spin_structure: tuple[int, int] = (0, 0)
    alias_tol: float = 3e-9

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown derivative mode {self.mode!r}")
        for n in self.shape:
            if self.mode == "spectral" and (n < 8 or n % 2):
                raise ValueError(
                    f"spectral mode needs even grid sizes >= 8, got {self.shape}")
            if n < 4:
                raise ValueError(f"grid too small: {self.shape}")
        if any(p <= 0 for p in self.periods):
            raise ValueError(f"periods must be positive, got {self.periods}")

    @property
    def spacings(self) -> tuple[float, float]:
        return (self.periods[0] / self.shape[0], self.periods[1] / self.shape[1])

    @property
    def cell_volume(self) -> float:
        h = self.spacings
        return h[0] * h[1]

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        axes = [np.arange(n) * (p / n) for n, p in zip(self.shape, self.periods)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


# -- low level engines ------------------------------------------------------


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=64)
def _twist(n: int) -> np.ndarray:
    return _read_only(np.exp(-1j * np.pi * np.arange(n) / n))


@lru_cache(maxsize=64)
def _spectral_tables(n: int, axis: int, period: float, phase: int):
    """Multiplier ``(2 pi i / period) k_eff``, twist and untwist (``None``
    when periodic), shaped to broadcast along ``axis``; built once."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    shape = [1, 1]
    shape[axis] = n
    if phase:
        twist = _twist(n).reshape(shape)
        untwist = _read_only(np.conj(twist))
        k_eff = k + 0.5
    else:
        twist = untwist = None
        k_eff = k.copy()
        k_eff[n // 2] = 0.0  # unpaired Nyquist mode carries no derivative
    return _read_only((2j * np.pi / period) * k_eff.reshape(shape)), twist, untwist


@lru_cache(maxsize=64)
def _profile_weights(n: int, phase: int) -> np.ndarray:
    """|frequency| of each profile bin, half-integer on a twisted axis."""
    return _read_only(np.abs(np.arange(n) - n // 2 + (0.5 if phase else 0.0)))


def _spectral_partial(arr: np.ndarray, axis: int, period: float, phase: int) -> np.ndarray:
    multiplier, twist, untwist = _spectral_tables(arr.shape[axis], axis, period, phase)
    spec = np.fft.fft(arr * twist if phase else arr, axis=axis)
    spec *= multiplier
    out = np.fft.ifft(spec, axis=axis)
    if phase:
        out *= untwist
    return np.ascontiguousarray(out.real)


def _rolled(arr: np.ndarray, shift: int, axis: int, phase: int) -> np.ndarray:
    """Sample ``f[i + shift]`` with (anti)periodic wrap-around."""
    out = np.roll(arr, -shift, axis=axis)  # a fresh array
    if phase and shift:
        n = arr.shape[axis]
        sel = [slice(None), slice(None)]
        sel[axis] = slice(n - shift, n) if shift > 0 else slice(0, -shift)
        out[tuple(sel)] *= -1.0
    return out


def _fd_partial(arr, axis, period, phase, order) -> np.ndarray:
    """Central difference of order 2 or 4, in place in a fresh shifted sample:
    the operations of ``(-f2 + 8 f1 - 8 f-1 + f-2) / 12h`` in Python's order."""
    h = period / arr.shape[axis]
    if order == 2:
        out = _rolled(arr, 1, axis, phase)
        out -= _rolled(arr, -1, axis, phase)
        return np.divide(out, 2 * h, out=out)
    out = _rolled(arr, 2, axis, phase)
    np.negative(out, out=out)
    term = _rolled(arr, 1, axis, phase)
    term *= 8
    out += term
    term = _rolled(arr, -1, axis, phase)
    term *= 8
    out -= term
    out += _rolled(arr, -2, axis, phase)
    return np.divide(out, 12 * h, out=out)


def _measure_profiles(arrays, shape, phases=(0, 0)) -> tuple[np.ndarray, np.ndarray]:
    p0 = np.zeros(shape[0])
    p1 = np.zeros(shape[1])
    norm = 1.0 / (shape[0] * shape[1])
    for arr in arrays:
        if phases[0]:
            arr = arr * _twist(shape[0]).reshape(-1, 1)
        if phases[1]:
            arr = arr * _twist(shape[1]).reshape(1, -1)
        mag = np.abs(np.fft.fft2(arr))
        mag *= norm
        # the adds of ``p += np.fft.fftshift(s)`` without the shifted copy:
        # FFT bin j lands on profile bin (j + h) mod n, h = n//2 >= 2
        for p, s in ((p0, mag.sum(axis=1)), (p1, mag.sum(axis=0))):
            h = p.shape[0] // 2
            p[h:] += s[:-h]
            p[:h] += s[-h:]
    # drop the round-off floor of the transform; it is far below anything
    # the aliasing guard needs to see and would otherwise smear along
    # product chains
    for p in (p0, p1):
        p[p < 1e-13 * max(p.sum(), 1e-300)] = 0.0
    return p0, p1


def _reach(profile: np.ndarray) -> int:
    """Distance in bins from the centre bin ``n//2`` of the farthest nonzero
    bin of ``profile``, or -1 when it has none."""
    nonzero = np.flatnonzero(profile)
    if not nonzero.size:
        return -1
    h = profile.shape[0] // 2
    return int(max(h - nonzero[0], nonzero[-1] - h))


def _profile_conv(pa: np.ndarray, pb: np.ndarray) -> tuple[np.ndarray, float]:
    """The convolution of two mass profiles and its mass past the band.
    Profile bin i is frequency ``i - n//2``, convolution bin i ``i - 2*(n//2)``."""
    h = pa.shape[0] // 2
    conv = np.convolve(pa, pb)
    # frequencies -h..h are representable (for even n the unpaired Nyquist
    # bin); only content beyond them folds onto foreign frequencies
    return conv, float(np.add.reduce(conv[:h]) + np.add.reduce(conv[3 * h + 1:]))


def _fold(conv: np.ndarray, n: int) -> np.ndarray:
    """Fold a convolution of :func:`_profile_conv` back into the band."""
    h = n // 2
    # frequency k lands on bin (k + h) mod n
    folded = conv[h:h + n].copy()
    folded[n - h:] += conv[:h]
    folded[:n - 1 - h] += conv[n + h:]
    return folded


def _wider(ra: tuple, rb: tuple) -> tuple:
    """Reach of a sum: the larger reach on each axis."""
    return (max(ra[0], rb[0]), max(ra[1], rb[1]))


def _frozen(bank: dict) -> dict:
    """Mark the arrays of a bank the algebra made itself read-only, in place."""
    for arr in bank.values():
        arr.setflags(write=False)
    return bank


def _nonzero(arr: np.ndarray) -> bool:
    """``arr.any()``, decided by one sample off the grid's symmetry lines
    unless that sample is zero (or -0.0); ``GridScalar.__mul__`` inlines it."""
    n0, n1 = arr.shape
    return arr.item((n0 // 3) * n1 + n1 // 5) != 0.0 or bool(arr.any())


def _keep(bank: dict, mask: int, arr: np.ndarray):
    """Store an array an operation computed, frozen, or drop ``mask`` if the
    array is zero (disjoint supports, cancellation and underflow all give
    exact zeros)."""
    if _nonzero(arr):
        arr.setflags(write=False)
        bank[mask] = arr
    else:
        bank.pop(mask, None)


def _kept(items) -> dict:
    """Bank of ``(mask, array)`` pairs an operation computed, with
    :func:`_keep` applied to each."""
    out = {}
    for mask, arr in items:
        _keep(out, mask, arr)
    return out


def _pair_plan(da: dict, db: dict) -> dict:
    """The graded product of two banks as ``{mask: [(aa, ab, negative),
    ...]}``: output masks in the order of first appearance, each with the
    factor pairs to multiply and sum in the order given."""
    pairs: dict[int, list] = {}
    for ma, aa in da.items():
        for mb, ab in db.items():
            if not ma & mb:
                # eps is even and never contributes a sign; left in ``ma``
                # it would count every generator of ``mb`` as a swap
                pairs.setdefault(ma | mb, []).append(
                    (aa, ab, mul_sign(ma & ~EPS, mb) < 0))
    return pairs


def _owned(arr) -> np.ndarray:
    """``arr`` if it is frozen and owns its data, else a frozen copy."""
    if (isinstance(arr, np.ndarray) and not arr.flags.writeable and arr.flags.owndata
            and arr.flags.c_contiguous and arr.dtype == np.float64):
        return arr
    arr = np.array(arr, dtype=np.float64, order="C")
    arr.setflags(write=False)
    return arr


def _clean_bank(bank, shape) -> dict[int, np.ndarray]:
    out = {}
    for mask, arr in bank.items():
        if not 0 <= mask < 2 * EPS:
            raise GeneratorMismatch(
                f"monomial {mask:#x} uses bits beyond the generators and eps")
        arr = _owned(arr)
        if arr.shape != shape:
            raise ShapeMismatch(f"array shape {arr.shape} != grid {shape}")
        if _nonzero(arr):
            out[mask] = arr
    return out


class GridScalar:
    """Grassmann-valued scalar field with an exact first-variation slot.

    ``coeffs`` maps monomial masks to frozen arrays; keys carrying the
    :data:`EPS` bit hold the first variation.  Read-only float64 arrays
    that own their data are kept as they are; any other input is copied.
    The spectral profiles of caller data are always measured.
    """

    __slots__ = ("grid", "phases", "coeffs", "profiles", "reach")

    def __init__(self, grid: TorusGrid, coeffs=None, phases: tuple[int, int] = (0, 0)):
        self._fill(grid, _clean_bank(coeffs or {}, grid.shape), phases, None, None)

    def _fill(self, grid, coeffs, phases, profiles, reach):
        self.grid = grid
        self.phases = phases
        self.coeffs = coeffs
        if not coeffs:
            profiles = (np.zeros(grid.shape[0]), np.zeros(grid.shape[1]))
            reach = (-1, -1)
        elif profiles is None:
            profiles = _measure_profiles(coeffs.values(), grid.shape, phases)
            reach = (_reach(profiles[0]), _reach(profiles[1]))
        self.profiles = profiles
        self.reach = reach

    @classmethod
    def _made(cls, grid, coeffs, phases, profiles, reach) -> "GridScalar":
        """Result of the algebra; ``coeffs`` already holds the construction
        invariant, so none of the constructor's checks run."""
        self = object.__new__(cls)
        self._fill(grid, coeffs, phases, profiles, reach)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, grid: TorusGrid, phases=(0, 0)) -> "GridScalar":
        return cls(grid, {}, phases=phases)

    @classmethod
    def constant(cls, grid: TorusGrid, value) -> "GridScalar":
        """Spatially constant field from a number or a ring element, ``eps``
        monomials included."""
        ones = np.ones(grid.shape)
        coeffs = value.coeffs if isinstance(value, GrassmannElement) else {0: value}
        return cls(grid, _frozen({m: float(c) * ones for m, c in coeffs.items()}))

    @classmethod
    def dual(cls, value: "GridScalar", variation: "GridScalar") -> "GridScalar":
        """Seed ``value + eps * variation`` from two variation-free fields."""
        if value.has_eps() or variation.has_eps():
            raise ValueError("dual seed expects variation-free inputs")
        value._check_compatible(variation)
        coeffs = dict(value.coeffs)
        coeffs.update({m | EPS: a for m, a in variation.coeffs.items()})
        return cls._made(value.grid, coeffs, value.phases,
                         (value.profiles[0] + variation.profiles[0],
                          value.profiles[1] + variation.profiles[1]),
                         _wider(value.reach, variation.reach))

    # -- bookkeeping ---------------------------------------------------------

    def _check_compatible(self, other: "GridScalar"):
        if self.grid is not other.grid and self.grid != other.grid:
            raise ShapeMismatch("fields live on different grids")
        if self.phases != other.phases:
            raise ShapeMismatch(
                f"boundary phases differ: {self.phases} vs {other.phases}")

    def is_zero(self) -> bool:
        return not self.coeffs

    def has_eps(self) -> bool:
        """Whether the field carries a nonzero first variation."""
        return any(m & EPS for m in self.coeffs)

    @property
    def parity(self) -> int | None:
        if not self.coeffs:
            return 0
        parities = {parity_of(m & ~EPS) for m in self.coeffs}
        return parities.pop() if len(parities) == 1 else None

    def max_abs(self) -> float:
        return max((float(np.max(np.abs(a))) for a in self.coeffs.values()),
                   default=0.0)

    # -- linear structure ------------------------------------------------------

    def _combine(self, other, subtract: bool):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_compatible(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return -other if subtract else other
        # masks only ``self`` has are carried over as they are
        out = dict(self.coeffs)
        for m, arr in other.coeffs.items():
            cur = out.get(m)
            if cur is None:
                if subtract:
                    _keep(out, m, -arr)
                else:
                    out[m] = arr
            else:
                _keep(out, m, cur - arr if subtract else cur + arr)
        return GridScalar._made(self.grid, out, self.phases,
                                (self.profiles[0] + other.profiles[0],
                                 self.profiles[1] + other.profiles[1]),
                                _wider(self.reach, other.reach))

    def __add__(self, other):
        return self._combine(other, subtract=False)

    __radd__ = __add__

    def __neg__(self):
        return GridScalar._made(self.grid, _kept((m, -a) for m, a in self.coeffs.items()),
                                self.phases, self.profiles, self.reach)

    def __sub__(self, other):
        return self._combine(other, subtract=True)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: float) -> "GridScalar":
        c = float(c)
        if c == 0.0:
            return GridScalar.zeros(self.grid, self.phases)
        return GridScalar._made(self.grid, _kept((m, c * a) for m, a in self.coeffs.items()),
                                self.phases,
                                (abs(c) * self.profiles[0], abs(c) * self.profiles[1]),
                                self.reach)

    def _lift(self, other):
        if isinstance(other, GridScalar):
            return other
        if isinstance(other, (Number, GrassmannElement)):
            return GridScalar.constant(self.grid, other)
        return NotImplemented

    # -- graded product ----------------------------------------------------------

    def _guard(self, other: "GridScalar") -> list:
        """Per axis the convolution of the factors' profiles, or None where
        their reaches keep ``self * other`` in band; raises
        :class:`AliasingDetected` when the product would alias."""
        convs = []
        for axis, n in enumerate(self.grid.shape):
            if self.reach[axis] + other.reach[axis] <= (n - 1) // 2:
                # in band: the guard cannot trip and the fold adds only zeros
                convs.append(None)
                continue
            conv, wrapped = _profile_conv(self.profiles[axis], other.profiles[axis])
            # the absolute deadband ignores wrap in products whose entire
            # spectral mass is already at round-off level
            if self.grid.mode == "spectral" and wrapped > 1e-14:
                total = float(conv.sum())
                if wrapped > self.grid.alias_tol * total:
                    raise AliasingDetected(
                        f"product pushes {wrapped:.3e} of {total:.3e} spectral mass "
                        f"past Nyquist along axis {axis}")
            convs.append(conv)
        return convs

    def __mul__(self, other):
        if not isinstance(other, GridScalar):
            if isinstance(other, Number):
                return self.scale(other)
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        grid = self.grid
        if grid is not other.grid and grid != other.grid:
            raise ShapeMismatch("fields live on different grids")
        phases = ((self.phases[0] + other.phases[0]) % 2,
                  (self.phases[1] + other.phases[1]) % 2)
        if not self.coeffs or not other.coeffs:
            return GridScalar._made(grid, {}, phases, None, None)
        profiles, reach = [], []
        for n, conv, pa, pb, ra, rb in zip(grid.shape, self._guard(other), self.profiles,
                                           other.profiles, self.reach, other.reach):
            if conv is None:
                # in band: the centre of the convolution is the folded profile
                profiles.append(np.convolve(pa, pb)[n // 2:n // 2 + n].copy())
                reach.append(ra + rb)
            else:
                profiles.append(_fold(conv, n))
                reach.append(n // 2)
        sample = (grid.shape[0] // 3) * grid.shape[1] + grid.shape[1] // 5
        coeffs, scratch = {}, None
        for mask, ((aa, ab, negative), *rest) in _pair_plan(self.coeffs, other.coeffs).items():
            acc = np.multiply(aa, ab)
            if negative:
                np.negative(acc, out=acc)
            for aa, ab, negative in rest:
                scratch = np.multiply(aa, ab, out=scratch)
                (np.subtract if negative else np.add)(acc, scratch, out=acc)
            if acc.item(sample) != 0.0 or acc.any():  # _nonzero, inline
                acc.setflags(write=False)
                coeffs[mask] = acc
        return GridScalar._made(grid, coeffs, phases, tuple(profiles), tuple(reach))

    def __rmul__(self, other):
        if isinstance(other, Number):
            return self.scale(other)
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __truediv__(self, other):
        if isinstance(other, Number):
            return self.scale(1.0 / float(other))
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    # -- nonlinear maps ----------------------------------------------------------

    def inv(self) -> "GridScalar":
        """Pointwise inverse; needs an everywhere nonvanishing body.

        ``self = body * (1 + rest)`` with a nilpotent ``rest``: every factor
        of ``rest`` adds a generator or ``eps`` bit, so the geometric series
        ends by itself after at most one term per bit.
        """
        if self.phases != (0, 0):
            raise ValueError("cannot invert a twisted field")
        body = self.coeffs.get(0)
        if body is None or np.min(np.abs(body)) < 1e-200:
            raise NoBody("field body vanishes somewhere; not invertible")
        binv = GridScalar(self.grid, _frozen({0: 1.0 / body}))
        unit = self * binv
        # the soul of ``unit``, profiles measured from the data
        rest = GridScalar(self.grid, {m: a for m, a in unit.coeffs.items() if m})
        acc = term = binv
        while True:
            term = -(term * rest)
            if term.is_zero():
                return acc
            acc = acc + term

    def exp(self) -> "GridScalar":
        """Exponential of a field whose value is body-only (the Weyl factors).

        The variation may be any field: ``exp(u + eps du) = exp(u) (1 + eps du)``.
        """
        if self.phases != (0, 0):
            raise ValueError("cannot exponentiate a twisted field")
        if any(m and not m & EPS for m in self.coeffs):
            raise ValueError("exp is only supported for body-only fields")
        base = np.exp(self.coeffs.get(0, np.zeros(self.grid.shape)))
        out = {0: base}
        out.update({m: base * arr for m, arr in self.coeffs.items() if m & EPS})
        return GridScalar(self.grid, _frozen(out))

    # -- calculus ------------------------------------------------------------------

    def partial(self, axis: int) -> "GridScalar":
        """Partial derivative along a coordinate axis."""
        grid = self.grid
        period = grid.periods[axis]
        phase = self.phases[axis]
        if grid.mode == "spectral":
            engine = lambda arr: _spectral_partial(arr, axis, period, phase)
        else:
            order = 2 if grid.mode == "fd2" else 4
            engine = lambda arr: _fd_partial(arr, axis, period, phase, order)
        value = _kept((m, engine(a)) for m, a in self.coeffs.items())
        dprof = list(self.profiles)
        dprof[axis] = (self.profiles[axis] * (2 * np.pi / period)
                       * _profile_weights(grid.shape[axis], phase))
        return GridScalar._made(grid, value, self.phases, tuple(dprof), self.reach)

    def integral(self, gens: int = 8, weight: "GridScalar | None" = None):
        """Plain quadrature sum times the cell volume.

        Returns a :class:`GrassmannElement` over ``gens`` generators whose
        ``eps`` monomials integrate the variation.  numpy's pairwise
        summation keeps the reduction deterministic for a fixed shape.

        With a ``weight`` field the integrand is ``self * weight``.  The
        product runs under the same grid check and aliasing guard as
        ``*`` but is never stored; the result equals
        ``(self * weight).integral(gens)`` bitwise.
        """
        vol = self.grid.cell_volume
        if weight is None:
            sums = {m: float(a.sum()) for m, a in self.coeffs.items()}
        elif self.grid is not weight.grid and self.grid != weight.grid:
            raise ShapeMismatch("fields live on different grids")
        elif not self.coeffs or not weight.coeffs:
            sums = {}
        else:
            self._guard(weight)
            # one array holds each monomial of the product in turn
            acc, scratch, sums = np.empty(self.grid.shape), None, {}
            for m, ((aa, ab, negative), *rest) in _pair_plan(self.coeffs, weight.coeffs).items():
                np.multiply(aa, ab, out=acc)
                if negative:
                    np.negative(acc, out=acc)
                for aa, ab, negative in rest:
                    scratch = np.multiply(aa, ab, out=scratch)
                    (np.subtract if negative else np.add)(acc, scratch, out=acc)
                if _nonzero(acc):
                    sums[m] = float(acc.sum())
        return GrassmannElement(gens, {m: c * vol for m, c in sums.items()})

    # -- misc --------------------------------------------------------------------

    def __repr__(self):
        return (f"GridScalar(shape={self.grid.shape}, monomials="
                f"{sorted(self.coeffs)}, phases={self.phases})")
