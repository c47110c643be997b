"""Periodic-grid calculus for Grassmann-valued scalar fields.

A :class:`GridScalar` is a scalar field on a two-torus whose value at every
grid point lies in the exterior algebra of :mod:`grassmann`, extended by an
even deformation parameter ``eps`` with ``eps**2 = 0``.  The field is stored
as one real array per monomial.  A monomial is a bitmask: bits 0-15 are the
odd generators and bit 16 (:data:`EPS`) is ``eps``, so the coefficient of
``eps * m`` sits under the key ``m | EPS``.  Because ``eps`` is even and
nilpotent, the ordinary graded product (skip overlapping masks, take the sign
of the odd generators only) is also the Leibniz rule of the first variation.
All field algebra and all derivative engines act monomial-wise on these
arrays.

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
+0.0 and the fold would only add zeros: such a product skips the guard's
mass sums and the fold, takes the centre of the convolution as its
profile, bitwise what the fold gives, and reaches the sum.  Any other
product runs the guard and the fold, and reaches ``n//2``.

Construction invariant
----------------------
Every array a field stores is frozen (read-only), owns its data and is
nonzero somewhere.  The public constructor validates its input: mask range,
shape, a frozen owned float64 copy where needed, and zero arrays dropped.
Results of the algebra (sums, products, scalings, partials, :meth:`dual`,
negation) skip that validation and zero-test only the arrays the operation
computed; an array carried over unchanged from an operand already holds the
invariant.  A product or sum with an empty operand does no array work at
all, and :meth:`GridScalar.integral` with a ``weight`` integrates a product
without storing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from numbers import Number

import numpy as np

from .grassmann import (DualScalar, GeneratorMismatch, GrassmannElement, NoBody,
                        mul_sign, parity_of)

# ``GrassmannElement`` caps the generator count at 16, so bit 16 is free
EPS = 1 << 16


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
    arr.flags.writeable = False
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
    h = period / arr.shape[axis]
    if order == 2:
        return (_rolled(arr, 1, axis, phase) - _rolled(arr, -1, axis, phase)) / (2 * h)
    return (-_rolled(arr, 2, axis, phase) + 8 * _rolled(arr, 1, axis, phase)
            - 8 * _rolled(arr, -1, axis, phase) + _rolled(arr, -2, axis, phase)) / (12 * h)


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
        p0 += np.fft.fftshift(mag.sum(axis=1))
        p1 += np.fft.fftshift(mag.sum(axis=0))
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


def _centre_conv(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """The in-band bins of the convolution of two mass profiles; equal to the
    folded profile of :func:`_profile_conv` when no bin lies past the band."""
    n = pa.shape[0]
    h = n // 2
    return np.convolve(pa, pb)[h:h + n].copy()


def _profile_conv(pa: np.ndarray, pb: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Fold the convolution of two mass profiles back into the band.

    Returns (folded profile, out-of-band mass, total mass).  Profile index i
    represents integer frequency ``i - n//2``.
    """
    n = pa.shape[0]
    h = n // 2
    conv = np.convolve(pa, pb)  # index i is frequency i - 2h
    # frequencies -h..h are representable (for even n the unpaired Nyquist
    # bin); only content beyond them folds onto foreign frequencies
    total = float(conv.sum())
    wrapped = float(conv[:h].sum() + conv[3 * h + 1:].sum())
    # frequency k lands on bin (k + h) mod n
    folded = conv[h:h + n].copy()
    folded[n - h:] += conv[:h]
    folded[:n - 1 - h] += conv[n + h:]
    return folded, wrapped, total


def _wider(ra: tuple, rb: tuple) -> tuple:
    """Reach of a sum: the larger reach on each axis."""
    return (max(ra[0], rb[0]), max(ra[1], rb[1]))


def _frozen(bank: dict) -> dict:
    """Mark the arrays of a bank the algebra made itself read-only, in place."""
    for arr in bank.values():
        arr.flags.writeable = False
    return bank


def _keep(bank: dict, mask: int, arr: np.ndarray):
    """Store an array an operation computed, frozen, or drop ``mask`` if the
    array is zero (disjoint supports, cancellation and underflow all give
    exact zeros)."""
    if arr.any():
        arr.flags.writeable = False
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


def _products(da: dict, db: dict, out=None):
    """Yield ``(mask, array)`` per monomial of the graded product of two
    banks, in the order of first appearance.  The pairs of one output mask
    are multiplied and summed in the order they appear.  Each array is
    fresh, unless ``out`` is given: then every array is ``out`` itself,
    overwritten by the next monomial."""
    pairs: dict[int, list] = {}
    for ma, aa in da.items():
        for mb, ab in db.items():
            if not ma & mb:
                # eps is even and never contributes a sign; left in ``ma``
                # it would count every generator of ``mb`` as a swap
                pairs.setdefault(ma | mb, []).append(
                    (aa, ab, mul_sign(ma & ~EPS, mb) < 0))
    scratch = None
    for mask, ((aa, ab, negative), *rest) in pairs.items():
        acc = np.multiply(aa, ab, out=out)
        if negative:
            np.negative(acc, out=acc)
        for aa, ab, negative in rest:
            scratch = np.multiply(aa, ab, out=scratch)
            (np.subtract if negative else np.add)(acc, scratch, out=acc)
        yield mask, acc


def _owned(arr) -> np.ndarray:
    """``arr`` if it is frozen and owns its data, else a frozen copy."""
    if (isinstance(arr, np.ndarray) and not arr.flags.writeable and arr.flags.owndata
            and arr.flags.c_contiguous and arr.dtype == np.float64):
        return arr
    arr = np.array(arr, dtype=np.float64, order="C")
    arr.flags.writeable = False
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
        if arr.any():
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
        """Spatially constant field from a number / element / dual scalar."""
        ones = np.ones(grid.shape)
        if isinstance(value, Number):
            value = DualScalar(GrassmannElement(0, {0: float(value)}))
        elif isinstance(value, GrassmannElement):
            value = DualScalar(value)
        coeffs = {m: float(c) * ones for m, c in value.value.coeffs.items()}
        coeffs.update({m | EPS: float(c) * ones
                       for m, c in value.variation.coeffs.items()})
        return cls(grid, _frozen(coeffs))

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
        if self.grid != other.grid:
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
        if isinstance(other, (Number, Fraction, GrassmannElement, DualScalar)):
            return GridScalar.constant(self.grid, other)
        return NotImplemented

    # -- graded product ----------------------------------------------------------

    def _guarded_profiles(self, other: "GridScalar"):
        """Folded profiles and reaches of ``self * other``; raises
        :class:`AliasingDetected` when the product would alias."""
        profiles, reach = [], []
        for axis, n in enumerate(self.grid.shape):
            pa, pb = self.profiles[axis], other.profiles[axis]
            r = self.reach[axis] + other.reach[axis]
            if r <= (n - 1) // 2:
                # in band: the guard cannot trip and the fold adds only zeros
                profiles.append(_centre_conv(pa, pb))
                reach.append(r)
                continue
            folded, wrapped, total = _profile_conv(pa, pb)
            # the absolute deadband ignores wrap in products whose entire
            # spectral mass is already at round-off level
            if (self.grid.mode == "spectral" and wrapped > 1e-14
                    and wrapped > self.grid.alias_tol * total):
                raise AliasingDetected(
                    f"product pushes {wrapped:.3e} of {total:.3e} spectral mass "
                    f"past Nyquist along axis {axis}")
            profiles.append(folded)
            reach.append(n // 2)
        return tuple(profiles), tuple(reach)

    def __mul__(self, other):
        if isinstance(other, Number):
            return self.scale(other)
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self.grid != other.grid:
            raise ShapeMismatch("fields live on different grids")
        phases = ((self.phases[0] + other.phases[0]) % 2,
                  (self.phases[1] + other.phases[1]) % 2)
        if not self.coeffs or not other.coeffs:
            return GridScalar._made(self.grid, {}, phases, None, None)
        profiles, reach = self._guarded_profiles(other)
        return GridScalar._made(self.grid, _kept(_products(self.coeffs, other.coeffs)),
                                phases, profiles, reach)

    def __rmul__(self, other):
        if isinstance(other, Number):
            return self.scale(other)
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __truediv__(self, other):
        if isinstance(other, (Number, Fraction)):
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
        if any(m and not m & EPS for m in self.coeffs):
            raise ValueError("exp is only supported for body-only fields")
        base = np.exp(self.coeffs.get(0, np.zeros(self.grid.shape)))
        out = {0: base}
        out.update({m: base * arr for m, arr in self.coeffs.items() if m & EPS})
        return GridScalar(self.grid, _frozen(out), phases=self.phases)

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

        Returns a :class:`DualScalar` when the integrand carries a variation
        slot and a :class:`GrassmannElement` otherwise.  numpy's pairwise
        summation keeps the reduction deterministic for a fixed shape.

        With a ``weight`` field the integrand is ``self * weight``.  The
        product runs under the same grid check and aliasing guard as
        ``*`` but is never stored; the result equals
        ``(self * weight).integral(gens)`` bitwise.
        """
        vol = self.grid.cell_volume
        if weight is None:
            sums = {m: float(a.sum()) for m, a in self.coeffs.items()}
        elif self.grid != weight.grid:
            raise ShapeMismatch("fields live on different grids")
        elif not self.coeffs or not weight.coeffs:
            sums = {}
        else:
            self._guarded_profiles(weight)
            # one scratch array holds each monomial of the product in turn
            sums = {m: float(a.sum()) for m, a in _products(
                self.coeffs, weight.coeffs, out=np.empty(self.grid.shape)) if a.any()}
        value = GrassmannElement(
            gens, {m: c * vol for m, c in sums.items() if not m & EPS})
        if not any(m & EPS for m in sums):
            return value
        variation = GrassmannElement(
            gens, {m & ~EPS: c * vol for m, c in sums.items() if m & EPS})
        return DualScalar(value, variation)

    # -- misc --------------------------------------------------------------------

    def __repr__(self):
        return (f"GridScalar(shape={self.grid.shape}, monomials="
                f"{sorted(self.coeffs)}, phases={self.phases})")
