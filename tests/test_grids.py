import numpy as np
import pytest

from supertorus import grids
from supertorus.grassmann import (GeneratorMismatch, GrassmannElement, NoBody, mul_sign,
                                  random_element)
from supertorus.grids import (EPS, AliasingDetected, GridScalar, ShapeMismatch, TorusGrid,
                              _fd_partial, _fold, _measure_profiles, _nonzero,
                              _pair_plan, _profile_conv, _spectral_partial,
                              _spectral_tables)


def grid32(mode="spectral"):
    return TorusGrid((32, 32), mode)


def wave(grid, k, amp=1.0, trig="cos", mask=0, phases=(0, 0)):
    x1, x2 = grid.coordinates()
    ph = 2 * np.pi * (k[0] * x1 + k[1] * x2)
    if phases[0]:
        ph = ph + np.pi * x1
    if phases[1]:
        ph = ph + np.pi * x2
    arr = amp * (np.cos(ph) if trig == "cos" else np.sin(ph))
    return GridScalar(grid, {mask: arr}, phases=phases)


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid((10, 7), mode="spectral")
    with pytest.raises(ValueError):
        TorusGrid((16, 16), mode="chebyshev")
    TorusGrid((10, 6), mode="fd2")


@pytest.mark.parametrize("mode,tol", [("spectral", 1e-12), ("fd2", 3e-2), ("fd4", 2e-4)])
def test_partial_derivative_single_mode(mode, tol):
    g = grid32(mode)
    f = wave(g, (1, 0), trig="sin")
    df = f.partial(0)
    x1, _ = g.coordinates()
    expected = 2 * np.pi * np.cos(2 * np.pi * x1)
    # ``tol`` bounds the error per pi of derivative amplitude; fd2 and fd4
    # are off by (2 pi h)^2 / 6 and (2 pi h)^4 / 30 of the amplitude 2 pi
    assert np.max(np.abs(df.coeffs[0] - expected)) <= 2 * tol


def test_partial_both_slots_and_masks():
    g = grid32()
    f = GridScalar.dual(wave(g, (1, 0), mask=0b1), wave(g, (0, 2), mask=0b10))
    df = f.partial(1)
    # d/dx2 of the x1-only value wave vanishes; the variation wave survives
    assert set(df.coeffs) == {0b10 | EPS}


def test_antiperiodic_spectral_derivative():
    g = grid32()
    # half-integer mode cos(pi x): antiperiodic along axis 0
    x1, _ = g.coordinates()
    arr = np.cos(np.pi * x1)
    f = GridScalar(g, {0: arr}, phases=(1, 0))
    df = f.partial(0)
    expected = -np.pi * np.sin(np.pi * x1)
    assert np.max(np.abs(df.coeffs[0] - expected)) <= 1e-12


def test_antiperiodic_fd_derivative():
    g = TorusGrid((64, 8), mode="fd2")
    x1, _ = g.coordinates()
    arr = np.cos(np.pi * x1)
    f = GridScalar(g, {0: arr}, phases=(1, 0))
    df = f.partial(0)
    expected = -np.pi * np.sin(np.pi * x1)
    assert np.max(np.abs(df.coeffs[0] - expected)) <= 5e-3


def test_product_signs_and_nilpotency():
    g = grid32()
    a = wave(g, (1, 0), mask=0b1)
    b = wave(g, (0, 1), mask=0b10)
    ab = a * b
    ba = b * a
    assert set(ab.coeffs) == {0b11}
    assert np.max(np.abs(ab.coeffs[0b11] + ba.coeffs[0b11])) == 0.0
    assert (a * a).is_zero()


def test_constructor_keeps_the_callers_array_writeable():
    g = TorusGrid((8, 8))
    a = np.ones(g.shape)
    f = GridScalar(g, {0: a})
    assert a.flags.writeable
    a[0, 0] = 2.0
    assert np.all(f.coeffs[0] == 1.0)
    assert not f.coeffs[0].flags.writeable
    # a frozen array that owns its data is taken as it is; a frozen view of
    # a writeable array is copied
    a.flags.writeable = False
    assert GridScalar(g, {0: a}).coeffs[0] is a
    b = np.ones(g.shape)
    view = b.view()
    view.flags.writeable = False
    g_view = GridScalar(g, {0: view})
    b[0, 0] = 2.0
    assert np.all(g_view.coeffs[0] == 1.0)


def test_product_and_difference_leave_operands_alone():
    g = grid32()
    masks = (0, 0b1, 0b10, 0b11 | EPS)
    a = sum((wave(g, (i, 1), amp=0.5 + i, mask=m) for i, m in enumerate(masks)),
            GridScalar.zeros(g))
    b = sum((wave(g, (1, i), amp=1.5 - i, trig="sin", mask=m) for i, m in enumerate(masks)),
            GridScalar.zeros(g))
    before = [{m: arr.copy() for m, arr in f.coeffs.items()} for f in (a, b)]
    prod, diff = a * b, a - b
    # several pairs land on 0b1, 0b10, 0b11 and their eps partners
    expected = {}
    for ma, aa in before[0].items():
        for mb, ab in before[1].items():
            if not ma & mb:
                term = mul_sign(ma & ~EPS, mb) * (aa * ab)
                expected[ma | mb] = expected.get(ma | mb, 0.0) + term
    assert prod.coeffs.keys() == expected.keys()
    for m, arr in expected.items():
        assert np.array_equal(prod.coeffs[m], arr), m
    for m in masks:
        assert np.array_equal(diff.coeffs[m], before[0][m] - before[1][m])
    for f, old in zip((a, b), before):
        assert f.coeffs.keys() == old.keys()
        assert all(np.array_equal(f.coeffs[m], old[m]) for m in old)
    for f in (a, b, prod, diff):
        assert not any(arr.flags.writeable for arr in f.coeffs.values())


MASKS4 = [m | e for m in range(16) for e in (0, EPS)]


def test_pair_plan_signs_every_disjoint_pair():
    """Each plan entry carries its factors' masks here, so the flag of every
    disjoint pair over 4 generators, with and without eps, can be read off."""
    plan = _pair_plan({m: m for m in MASKS4}, {m: m for m in MASKS4})
    seen = set()
    for mask, entries in plan.items():
        for ma, mb, negative in entries:
            assert not ma & mb and ma | mb == mask
            assert negative == (mul_sign(ma & ~EPS, mb) < 0), (ma, mb)
            seen.add((ma, mb))
    assert seen == {(ma, mb) for ma in MASKS4 for mb in MASKS4 if not ma & mb}


def test_product_signs_only_pairs_with_generators_on_both_sides(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return mul_sign(a, b)

    monkeypatch.setattr(grids, "mul_sign", counted)
    g = grid32()
    masks = (0, EPS, 0b1, 0b10 | EPS, 0b101)
    a = sum((wave(g, (i, 1), amp=0.5 + i, mask=m) for i, m in enumerate(masks)),
            GridScalar.zeros(g))
    b = sum((wave(g, (1, i), amp=1.5 - i, trig="sin", mask=m) for i, m in enumerate(masks)),
            GridScalar.zeros(g))
    a * b
    a.integral(weight=b)
    want = [(ma & ~EPS, mb) for ma in masks for mb in masks
            if not ma & mb and ma & ~EPS and mb & ~EPS]
    assert calls == want + want
    assert all(x and y & ~EPS for x, y in calls)


def _profile_conv_by_add_at(pa, pb):
    """Fold of the convolution with one ``np.add.at`` over every bin."""
    n = pa.shape[0]
    conv = np.convolve(pa, pb)
    ks = np.arange(conv.shape[0]) - 2 * (n // 2)  # profile bin i is i - n//2
    in_band = np.abs(ks) <= n // 2
    folded = np.zeros(n)
    np.add.at(folded, (ks + n // 2) % n, conv)
    return folded, float(conv[~in_band].sum()), float(conv.sum())


@pytest.mark.parametrize("n", [4, 5, 8, 9, 32, 33, 256])
def test_profile_fold_matches_add_at(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        pa, pb = (rng.exponential(size=n) * (rng.random(n) < 0.7) for _ in range(2))
        conv, wrapped = _profile_conv(pa, pb)
        want_folded, want_wrapped, want_total = _profile_conv_by_add_at(pa, pb)
        assert np.array_equal(_fold(conv, n), want_folded)
        assert abs(wrapped - want_wrapped) <= 1e-15 * want_wrapped
        assert float(conv.sum()) == want_total
        assert (wrapped > 1e-14) == (want_wrapped > 1e-14)
        # the same draw scaled to a wrapped mass just either side of the
        # guard's 1e-14 deadband
        for side in (1 - 1e-6, 1 + 1e-6) if want_wrapped else ():
            qa = pa * (side * 1e-14 / want_wrapped)
            wrapped = _profile_conv(qa, pb)[1]
            want_wrapped_q = _profile_conv_by_add_at(qa, pb)[1]
            assert (wrapped > 1e-14) == (want_wrapped_q > 1e-14) == (side > 1)


@pytest.mark.parametrize("mode", ["fd2", "fd4"])
def test_products_on_odd_fd_grids(mode):
    g = TorusGrid((9, 7), mode=mode)
    # the body product reaches frequency 5 on both axes, past the band
    a = wave(g, (3, 2)) + wave(g, (0, 1), mask=0b1)
    b = wave(g, (2, 3), trig="sin") + wave(g, (1, 0), mask=0b10)
    prod = a * b
    assert set(prod.coeffs) == {0, 0b1, 0b10, 0b11}
    for m, (ma, mb) in {0: (0, 0), 0b1: (0b1, 0), 0b10: (0, 0b10)}.items():
        assert np.allclose(prod.coeffs[m], a.coeffs[ma] * b.coeffs[mb], atol=1e-15)
    # a fold that sends frequency k anywhere but bin (k + n//2) mod n, or drops
    # a bin, moves mass here
    for axis, n in enumerate(g.shape):
        want = _profile_conv_by_add_at(a.profiles[axis], b.profiles[axis])[0]
        assert np.allclose(prod.profiles[axis], want, rtol=1e-15, atol=0)
        assert np.isclose(prod.profiles[axis].sum(),
                          a.profiles[axis].sum() * b.profiles[axis].sum(), rtol=1e-14)
    unit = (prod + 3.0) * (prod + 3.0).inv()
    assert np.allclose(unit.coeffs[0], 1.0, atol=1e-14)
    assert all(np.allclose(arr, 0.0, atol=1e-14) for m, arr in unit.coeffs.items() if m)


def test_dual_product_rule_on_grid():
    g = grid32()
    a = GridScalar.dual(wave(g, (1, 0)), wave(g, (2, 0)))
    b = GridScalar.dual(wave(g, (0, 1)), wave(g, (0, 2)))
    prod = a * b
    expected = (wave(g, (1, 0)) * wave(g, (0, 2))
                + wave(g, (2, 0)) * wave(g, (0, 1)))
    assert np.max(np.abs(prod.coeffs[EPS] - expected.coeffs[0])) <= 1e-14


def _with_eps(value, variation):
    """``value + eps * variation``, the variation moved under ``EPS``."""
    return value + GrassmannElement({m | EPS: c for m, c in variation.coeffs.items()})


def test_dual_constant_product_matches_dual_scalars():
    g = TorusGrid((8, 8))
    rng = np.random.default_rng(5)
    for trial in range(40):
        pa, pb = trial % 2, (trial // 2) % 2
        a, b = (_with_eps(random_element(rng, 8, parity=p), random_element(rng, 8, parity=p))
                for p in (pa, pb))
        got = (GridScalar.constant(g, a) * GridScalar.constant(g, b)).integral()
        assert ((a * b) - got).max_abs() <= 1e-12, (pa, pb)


def test_masks_beyond_eps_rejected():
    g = grid32()
    ones = np.ones(g.shape)
    GridScalar(g, {(2 * EPS) - 1: ones})
    for mask in (2 * EPS, -1):
        with pytest.raises(GeneratorMismatch):
            GridScalar(g, {mask: ones})


def test_mixed_phase_product_becomes_periodic():
    g = grid32()
    a = wave(g, (0, 0), phases=(1, 0))
    b = wave(g, (1, 0), phases=(1, 0))
    prod = a * b
    assert prod.phases == (0, 0)


def test_phase_mismatch_add_raises():
    g = grid32()
    with pytest.raises(ShapeMismatch):
        wave(g, (1, 0)) + wave(g, (1, 0), phases=(1, 0))


@pytest.mark.parametrize("phases", [(2, 0), (0, -1), (1,), (0, 0, 0)])
def test_phases_outside_pairs_of_zero_and_one_are_rejected(phases):
    g = grid32()
    with pytest.raises(ValueError, match="phases"):
        GridScalar(g, {0: np.ones(g.shape)}, phases=phases)
    with pytest.raises(ValueError, match="phases"):
        GridScalar.zeros(g, phases)
    assert GridScalar.zeros(g, (1, 0)).phases == (1, 0)


def test_inverse_of_even_field():
    g = grid32()
    body = 1.5 + wave(g, (1, 1), amp=0.3).coeffs[0]
    soul = wave(g, (1, 0), amp=0.4).coeffs[0]
    f = GridScalar(g, {0: body, 0b11: soul})
    finv = f.inv()
    prod = f * finv
    assert np.max(np.abs(prod.coeffs[0] - 1.0)) <= 1e-13
    assert np.max(np.abs(prod.coeffs.get(0b11, np.zeros(g.shape)))) <= 1e-13


def test_inverse_of_body_only_field_is_exact():
    g = grid32()
    body = 1.5 + wave(g, (1, 1), amp=0.3).coeffs[0]
    finv = GridScalar(g, {0: body}).inv()
    assert set(finv.coeffs) == {0}
    assert np.array_equal(finv.coeffs[0], 1.0 / body)


def test_inverse_requires_body():
    g = grid32()
    with pytest.raises(NoBody):
        wave(g, (1, 0), mask=0b1).inv()


def test_inverse_rejects_a_nan_body():
    g = grid32()
    body = 1.5 + wave(g, (1, 1), amp=0.3).coeffs[0]
    body[3, 5] = np.nan
    with pytest.raises(NoBody):
        GridScalar(g, {0: body}).inv()


@pytest.mark.parametrize("inf", [np.inf, -np.inf])
def test_inverse_rejects_an_infinite_body(inf):
    g = grid32()
    body = 1.5 + wave(g, (1, 1), amp=0.3).coeffs[0]
    body[3, 5] = inf
    with np.errstate(all="ignore"):  # the profile transform meets the inf
        f = GridScalar(g, {0: body})
    with pytest.raises(NoBody, match="infinite"):
        f.inv()


@pytest.mark.parametrize("phases", [(1, 0), (0, 1), (1, 1)])
def test_inverse_and_exp_reject_twisted_fields(phases):
    g = grid32()
    f = GridScalar(g, {0: 1.5 + wave(g, (1, 1), amp=0.3).coeffs[0]}, phases=phases)
    with pytest.raises(ValueError, match="cannot invert a twisted field"):
        f.inv()
    with pytest.raises(ValueError, match="cannot exponentiate a twisted field"):
        f.exp()


TWISTS = [(0, 0), (1, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("phases", TWISTS[1:])
def test_integral_rejects_a_twisted_integrand(phases):
    g = grid32()
    f = wave(g, (1, 1), amp=0.3, phases=phases)
    for twisted in (f, GridScalar.zeros(g, phases)):
        with pytest.raises(ValueError, match="cannot integrate a twisted integrand"):
            twisted.integral()
    for other in TWISTS:
        w = wave(g, (0, 1), amp=0.4, phases=other)
        if other == phases:
            # equal twists cancel: the integrand is periodic
            _same_scalar(f.integral(weight=w), (f * w).integral())
            continue
        for a, b in ((f, w), (w, f)):
            with pytest.raises(ValueError, match="cannot integrate a twisted integrand"):
                a.integral(weight=b)


def test_exp_restricted_and_correct():
    g = grid32()
    u = wave(g, (1, 0), amp=0.2)
    eu = u.exp()
    assert np.max(np.abs(eu.coeffs[0] - np.exp(u.coeffs[0]))) <= 1e-15
    with pytest.raises(ValueError):
        wave(g, (1, 0), mask=0b1).exp()


def test_integral_constant():
    g = TorusGrid((32, 32))
    f = GridScalar.constant(g, 1.25)
    val = f.integral()
    assert abs(val.coeffs[0] - 1.25) <= 1e-12


def test_integral_of_derivative_vanishes():
    for mode in ("spectral", "fd2", "fd4"):
        g = grid32(mode)
        f = wave(g, (2, 1)) * wave(g, (1, 1), trig="sin")
        total = f.partial(0).integral()
        assert total.max_abs() <= 1e-13


def test_integration_by_parts():
    g = grid32()
    u = wave(g, (2, 0))
    v = wave(g, (1, 1), trig="sin")
    lhs = (u * v.partial(0)).integral()
    rhs = (u.partial(0) * v).integral()
    assert (lhs + rhs).max_abs() <= 1e-12


def test_integration_by_parts_fd_exact():
    g = grid32("fd2")
    rng = np.random.default_rng(0)
    u = GridScalar(g, {0: rng.standard_normal(g.shape)})
    v = GridScalar(g, {0: rng.standard_normal(g.shape)})
    lhs = (u * v.partial(0)).integral()
    rhs = (u.partial(0) * v).integral()
    assert (lhs + rhs).max_abs() <= 1e-13


def test_aliasing_guard_trips():
    g = grid32()
    f = wave(g, (10, 0))
    with pytest.raises(AliasingDetected):
        _ = (f * f) * (f * f)  # content at 4x mode 10 wraps on a 32 grid


def test_aliasing_guard_permits_decaying_tails():
    g = grid32()
    u = wave(g, (1, 0), amp=0.2)
    eu = u.exp()
    emu = (-1.0 * u).exp()
    prod = (eu * eu) * (emu * emu)  # smooth conformal factors multiply freely
    assert np.max(np.abs(prod.coeffs[0] - 1.0)) <= 1e-12


def test_dual_integral():
    g = grid32()
    f = GridScalar.dual(GridScalar.constant(g, 2.0), wave(g, (0, 0), amp=3.0))
    out = f.integral()
    assert set(out.coeffs) == {0, EPS}
    assert abs(out.coeffs[0] - 2.0) <= 1e-14
    assert abs(out.coeffs[EPS] - 3.0) <= 1e-14


def test_parity_tracking():
    g = grid32()
    odd = wave(g, (1, 0), mask=0b1)
    even = wave(g, (1, 0), mask=0b110)
    assert odd.parity == 1
    assert even.parity == 0
    assert (odd * even).parity == 1
    assert (odd + even).parity is None


def test_scalar_and_element_coefficients():
    g = grid32()
    f = wave(g, (1, 0))
    theta = GrassmannElement.generator(0)
    lifted = f * theta
    assert set(lifted.coeffs) == {0b1}
    # left and right multiplication by an odd constant differ by the graded sign
    other = wave(g, (0, 1), mask=0b10)
    left = theta * other
    right = other * theta
    assert np.max(np.abs(left.coeffs[0b11] + right.coeffs[0b11])) == 0.0


def _spectral_partial_uncached(arr, axis, phase):
    """Spectral derivative with every table built on the spot."""
    n = arr.shape[axis]
    k = np.fft.fftfreq(n, d=1.0 / n)
    shape = [1, 1]
    shape[axis] = n
    t = np.exp(-1j * np.pi * np.arange(n) / n).reshape(shape)
    if phase:
        k_eff = k + 0.5
    else:
        k_eff = k.copy()
        k_eff[n // 2] = 0.0
    spec = np.fft.fft(arr * t if phase else arr, axis=axis)
    spec *= 2j * np.pi * k_eff.reshape(shape)
    out = np.fft.ifft(spec, axis=axis)
    if phase:
        out *= np.conj(t)
    return np.ascontiguousarray(out.real)


@pytest.mark.parametrize("phase", [0, 1])
@pytest.mark.parametrize("axis", [0, 1])
def test_spectral_tables_are_cached_and_exact(axis, phase):
    arr = np.random.default_rng(3).standard_normal((16, 8))
    want = _spectral_partial_uncached(arr, axis, phase)
    for _ in range(2):
        assert np.array_equal(_spectral_partial(arr, axis, phase), want)
    assert _spectral_tables(arr.shape[axis], axis, phase) is \
        _spectral_tables(arr.shape[axis], axis, phase)
    for table in _spectral_tables(arr.shape[axis], axis, phase):
        assert table is None or not table.flags.writeable


def _same_scalar(a, b):
    """Exact equality of integrals, ``eps`` monomials included."""
    assert type(a) is type(b) is GrassmannElement
    assert a.coeffs == b.coeffs


def _weighted_integral_cases(g):
    a = wave(g, (1, 0), amp=0.7)
    b = wave(g, (0, 1), amp=0.4, trig="sin")
    c = wave(g, (1, 1), amp=0.3)
    eps_f = GridScalar.dual(a + wave(g, (1, 1), mask=0b1), b + c * GridScalar.constant(
        g, GrassmannElement.generator(2)))
    eps_w = GridScalar.dual(1.5 + b, wave(g, (1, 0), mask=0b1010))
    # (c g2 + eps a (g0 + g1)) * a (g0 + g1): the two eps pairs cancel exactly
    odd_f = GridScalar(g, {0b100: c.coeffs[0], 0b1 | EPS: a.coeffs[0],
                           0b10 | EPS: a.coeffs[0]})
    odd_w = GridScalar(g, {0b1: a.coeffs[0], 0b10: a.coeffs[0]})
    zero = GridScalar.zeros(g)
    return {"eps": (eps_f, eps_w), "eps-weight": (a, eps_w),
            "odd-eps-cancels": (odd_f, odd_w), "empty-weight": (eps_f, zero),
            "empty-field": (zero, eps_w)}


@pytest.mark.parametrize("case", ["eps", "eps-weight", "odd-eps-cancels",
                                  "empty-weight", "empty-field"])
def test_weighted_integral_is_the_integral_of_the_product(case):
    g = TorusGrid((16, 16))
    f, w = _weighted_integral_cases(g)[case]
    prod = f * w
    if case == "odd-eps-cancels":
        assert f.has_eps() and not prod.has_eps() and not prod.is_zero()
    _same_scalar(f.integral(weight=w), prod.integral())
    if case == "eps":
        assert any(m & EPS for m in prod.integral().coeffs)
        assert prod.integral().variation.max_abs() > 1e-3


def test_weighted_integral_keeps_the_aliasing_guard():
    g = grid32()
    f = wave(g, (10, 0))
    # mode 20 is past Nyquist on a 32 grid: the first product of
    # test_aliasing_guard_trips already trips
    with pytest.raises(AliasingDetected):
        f * f
    with pytest.raises(AliasingDetected):
        f.integral(weight=f)


def test_empty_operands_keep_the_grid_and_phase_checks():
    g, other = grid32(), TorusGrid((32, 16))
    zero, zero_twisted = GridScalar.zeros(g), GridScalar.zeros(g, phases=(1, 0))
    f = wave(g, (1, 0))
    for x, y in ((zero, wave(other, (1, 0))), (f, GridScalar.zeros(other))):
        for op in (lambda p, q: p * q, lambda p, q: p + q, lambda p, q: p - q,
                   lambda p, q: p.integral(weight=q)):
            with pytest.raises(ShapeMismatch):
                op(x, y)
            with pytest.raises(ShapeMismatch):
                op(y, x)
    for x, y in ((zero_twisted, f), (f, zero_twisted)):
        for op in (lambda p, q: p + q, lambda p, q: p - q):
            with pytest.raises(ShapeMismatch):
                op(x, y)
    twisted = wave(g, (1, 0), phases=(1, 1))
    for prod in (zero_twisted * twisted, twisted * zero_twisted):
        assert prod.is_zero() and prod.phases == (0, 1)
        assert not any(p.any() for p in prod.profiles)
    assert (zero * twisted).phases == (1, 1)
    for total in (zero_twisted + wave(g, (0, 1), phases=(1, 0)),
                  wave(g, (0, 1), phases=(1, 0)) - zero_twisted):
        assert total.phases == (1, 0) and set(total.coeffs) == {0}
    diff = zero - f
    assert np.array_equal(diff.coeffs[0], -f.coeffs[0])
    assert not diff.coeffs[0].flags.writeable


def test_sum_carries_unshared_arrays_over():
    g = grid32()
    f = wave(g, (1, 0)) + wave(g, (0, 1), mask=0b1)
    h = wave(g, (1, 1)) + wave(g, (1, 0), mask=0b10 | EPS)
    total = f + h
    assert total.coeffs[0b1] is f.coeffs[0b1]
    assert total.coeffs[0b10 | EPS] is h.coeffs[0b10 | EPS]
    assert np.array_equal(total.coeffs[0], f.coeffs[0] + h.coeffs[0])
    diff = f - h
    assert diff.coeffs[0b1] is f.coeffs[0b1]
    assert np.array_equal(diff.coeffs[0b10 | EPS], -h.coeffs[0b10 | EPS])


def test_cancelling_results_drop_the_mask():
    g = grid32()
    f = wave(g, (1, 0)) + wave(g, (0, 1), mask=0b1 | EPS)
    assert (f - f).is_zero()
    keep = wave(g, (1, 1), mask=0b100)
    assert set((f + keep - f).coeffs) == {0b100}
    # a g0 + b g1 squared: the pairs a*b g0 g1 and b*a g1 g0 cancel exactly
    psi = wave(g, (1, 0), amp=0.7, mask=0b1) + wave(g, (0, 1), amp=0.4, mask=0b10)
    assert psi.parity == 1 and (psi * psi).is_zero()
    assert (psi * psi).integral() == GrassmannElement.zero()


def test_zero_test_decides_as_any_on_every_shape():
    # from 4x4 up the sample lies inside the grid (an index past it raises)
    shapes = [(n0, n1) for n0 in range(4, 14) for n1 in range(4, 14)]
    for shape in shapes + [(4, 256), (256, 4), (128, 128), (256, 256)]:
        zeros = np.zeros(shape)
        assert not _nonzero(zeros) and not _nonzero(-zeros)
        assert _nonzero(np.full(shape, np.nan))
        points = range(zeros.size) if zeros.size < 200 else (0, zeros.size - 1)
        for k in points:
            hot = zeros.copy()
            hot.flat[k] = 5e-324
            assert _nonzero(hot) and _nonzero(-hot), (shape, k)


def test_zero_test_of_every_operation():
    """One-hot and NaN results are kept and exact zeros dropped, whichever
    point the zero test samples first."""
    g = TorusGrid((6, 7), mode="fd2")
    vol = g.cell_volume
    one = GridScalar.constant(g, 1.0)
    for k in range(6 * 7):
        arr = np.zeros(g.shape)
        arr.flat[k] = 1.0
        hot = GridScalar(g, {0b1: arr})
        for f in (hot * one, hot + hot, hot - hot.scale(2.0), hot.scale(3.0),
                  hot.partial(0), hot.partial(1)):
            assert set(f.coeffs) == {0b1}, k
        assert hot.integral(weight=one) == GrassmannElement({0b1: vol})
        # minus ones with -0.0 under the hot point: the product is -0.0 everywhere
        arr = -np.ones(g.shape)
        arr.flat[k] = -0.0
        signed = GridScalar(g, {0: arr})
        assert (hot * signed).is_zero()
        assert hot.integral(weight=signed) == GrassmannElement.zero()
        # a tiny field underflows to -0.0 under a tiny negative scale
        arr = np.zeros(g.shape)
        arr.flat[k] = 1e-200
        assert GridScalar(g, {0b1: arr}).scale(-1e-200).is_zero()
        assert GridScalar(g, {0b1: arr}).scale(1e-200).is_zero()
    # exact cancellation; a sum or difference can end in -0.0 only where both
    # operands hold -0.0, which a stored array cannot do everywhere
    psi = (GridScalar(g, {0b1: np.full(g.shape, 0.7)})
           + GridScalar(g, {0b10: np.full(g.shape, 0.4)}))
    assert (psi * psi).is_zero() and psi.integral(weight=psi) == GrassmannElement.zero()
    assert (hot + (-hot)).is_zero() and (hot - hot).is_zero()
    assert GridScalar.constant(g, 2.0).partial(0).is_zero()
    # NaN is nonzero
    nan = GridScalar(g, {0b1: np.full(g.shape, np.nan)})
    for f in (nan * one, nan + one, nan - nan, nan.scale(2.0), nan.partial(0)):
        assert 0b1 in f.coeffs
    assert np.isnan(nan.integral(weight=one).coeffs[0b1])


def _fd_reference(arr, axis, phase, order):
    """fd stencil with every shifted sample taken by ``np.take``; samples that
    wrap around a twisted axis change sign."""
    n = arr.shape[axis]
    shape = [1, 1]
    shape[axis] = n

    def shifted(s):
        idx = np.arange(n) + s
        out = np.take(arr, idx % n, axis=axis)
        if phase:
            out = out * np.where((idx < 0) | (idx >= n), -1.0, 1.0).reshape(shape)
        return out

    h = 1.0 / n
    if order == 2:
        return (shifted(1) - shifted(-1)) / (2 * h)
    return (-shifted(2) + 8 * shifted(1) - 8 * shifted(-1) + shifted(-2)) / (12 * h)


@pytest.mark.parametrize("mode", ["fd2", "fd4"])
def test_antiperiodic_fd_stencil_wraps_with_a_sign(mode):
    g = TorusGrid((9, 8), mode=mode)
    order = 2 if mode == "fd2" else 4
    arr = np.random.default_rng(7).standard_normal(g.shape)
    before = arr.copy()
    # (0, 0) is the periodic path the torsion workload runs
    for phases in ((0, 0), (1, 0), (0, 1), (1, 1)):
        f = GridScalar(g, {0b1: arr}, phases=phases)
        for axis in range(2):
            want = _fd_reference(arr, axis, phases[axis], order)
            assert f.partial(axis).coeffs[0b1].tobytes() == want.tobytes(), (phases, axis)
            assert _fd_partial(arr, axis, phases[axis], order).tobytes() \
                == want.tobytes()
            assert np.array_equal(arr, before)


# -- reach of the spectral profiles -------------------------------------------


def _support(profile):
    """Distance from the centre bin of the farthest nonzero bin, or -1."""
    n = profile.shape[0]
    return int(np.abs(np.arange(n) - n // 2)[profile != 0].max(initial=-1))


_PHASES = ((0, 0), (1, 0), (0, 1), (1, 1))


def _algebra_chain(g, seed, steps=120):
    """Fields built from random waves (and, on fd grids, white noise, which
    fills every bin) through a random chain of sums, differences, scalings,
    partials, duals, products, inverses and exponentials.

    Returns every field made along the way, internal ones included, and
    every product with its factors."""
    rng = np.random.default_rng(seed)
    made, products = [], []
    fill = GridScalar._fill

    def recording_fill(self, *args):
        fill(self, *args)
        made.append(self)

    def leaf(phases):
        if g.mode != "spectral" and rng.random() < 0.3:
            return GridScalar(g, {0: rng.standard_normal(g.shape)}, phases=phases)
        if rng.random() < 0.2:
            # mass in many bins, with a tail that decays fast enough for
            # products of two of them to pass the guard; exp takes periodic
            # fields only, so the samples of a twisted leaf carry a factor
            # cos(pi x / L) per twisted axis
            k = tuple(int(x) for x in rng.integers(0, 2, size=2))
            body = wave(g, k, amp=rng.uniform(0.05, 0.2)).exp().coeffs[0]
            return GridScalar(g, {0: body * wave(g, (0, 0), phases=phases).coeffs[0]},
                              phases=phases)
        k = tuple(int(x) for x in rng.integers(0, 3, size=2))
        return wave(g, k, amp=rng.uniform(0.1, 0.5), trig=("cos", "sin")[rng.integers(2)],
                    mask=int(rng.choice([0, 0, 0b1, 0b10, 0b11, 0b100])), phases=phases)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(GridScalar, "_fill", recording_fill)
        pool = [leaf(p) for p in _PHASES for _ in range(3)]
        for _ in range(steps):
            a = pool[rng.integers(len(pool))]
            same = [f for f in pool if f.phases == a.phases]
            b = same[rng.integers(len(same))]
            op = rng.choice(["+", "-", "neg", "scale", "partial", "dual", "*",
                             "inv", "exp", "leaf"], p=[.1, .1, .05, .1, .1, .05, .3,
                                                       .05, .05, .1])
            try:
                if op == "+":
                    out = a + b
                elif op == "-":
                    out = a - b
                elif op == "neg":
                    out = -a
                elif op == "scale":
                    out = a.scale(rng.choice([0.0, rng.uniform(-2, 2)]))
                elif op == "partial":
                    out = a.partial(int(rng.integers(2)))
                elif op == "dual":
                    if a.has_eps() or b.has_eps():
                        continue
                    out = GridScalar.dual(a, b)
                elif op == "*":
                    b = pool[rng.integers(len(pool))]
                    out = a * b
                    products.append((a, b, out))
                elif op == "inv":
                    if a.phases != (0, 0) or not a.max_abs():
                        continue
                    out = (a.scale(0.5 / a.max_abs()) + 1.0).inv()
                elif op == "exp":
                    if a.phases != (0, 0):
                        continue
                    body = GridScalar(g, {m: arr for m, arr in a.coeffs.items()
                                          if not m or m & EPS})
                    out = body.scale(0.3 / max(body.max_abs(), 1.0)).exp()
                else:
                    out = leaf(_PHASES[rng.integers(4)])
            except AliasingDetected:
                continue
            if 0 < out.max_abs() < 1e3:
                pool.append(out)
    return made, products


def _profiles_by_fftshift(arrays, shape, phases):
    """Mass profiles with every FFT axis sum centred by ``np.fft.fftshift``."""
    p0, p1 = np.zeros(shape[0]), np.zeros(shape[1])
    norm = 1.0 / (shape[0] * shape[1])
    twists = [np.exp(-1j * np.pi * np.arange(n) / n) for n in shape]
    for arr in arrays:
        if phases[0]:
            arr = arr * twists[0].reshape(-1, 1)
        if phases[1]:
            arr = arr * twists[1].reshape(1, -1)
        mag = np.abs(np.fft.fft2(arr))
        mag *= norm
        p0 += np.fft.fftshift(mag.sum(axis=1))
        p1 += np.fft.fftshift(mag.sum(axis=0))
    for p in (p0, p1):
        p[p < 1e-13 * max(p.sum(), 1e-300)] = 0.0
    return p0, p1


@pytest.mark.parametrize("mode,shape", [("spectral", (16, 10)), ("fd2", (9, 8)),
                                        ("fd4", (7, 11))])
@pytest.mark.parametrize("phases", _PHASES)
def test_measured_profiles_match_fftshift_bitwise(mode, shape, phases):
    g = TorusGrid(shape, mode=mode)
    rng = np.random.default_rng(sum(shape) + 2 * phases[0] + phases[1])
    arrays = [rng.standard_normal(shape) for _ in range(3)]
    want = _profiles_by_fftshift(arrays, shape, phases)
    field = GridScalar(g, {m: arr for m, arr in zip((0, 0b1, 0b11 | EPS), arrays)},
                       phases=phases)
    for got in (_measure_profiles(arrays, shape, phases), field.profiles):
        for axis in range(2):
            assert got[axis].tobytes() == want[axis].tobytes(), axis


_CHAIN_GRIDS = [("spectral", (16, 10)), ("spectral", (32, 32)), ("fd2", (9, 8)),
                ("fd2", (12, 12)), ("fd4", (7, 11)), ("fd4", (10, 9))]


@pytest.mark.parametrize("mode,shape", _CHAIN_GRIDS)
def test_reach_bounds_the_profile_support(mode, shape):
    g = TorusGrid(shape, mode=mode)
    made, _ = _algebra_chain(g, seed=sum(shape))
    assert len(made) > 100
    assert GridScalar.zeros(g).reach == (-1, -1)
    tight = 0
    for f in made:
        if f.is_zero():
            assert f.reach == (-1, -1)
        for axis, n in enumerate(shape):
            assert n // 2 >= f.reach[axis] >= _support(f.profiles[axis]), (f, axis)
            tight += f.reach[axis] == _support(f.profiles[axis]) > 0
    assert tight > len(made) // 2


@pytest.mark.parametrize("mode,shape", _CHAIN_GRIDS)
def test_product_profile_is_the_folded_convolution_bitwise(mode, shape):
    g = TorusGrid(shape, mode=mode)
    _, products = _algebra_chain(g, seed=sum(shape) + 1)
    paths = set()
    for a, b, prod in products:
        if prod.is_zero():
            continue
        for axis, n in enumerate(shape):
            want = _fold(_profile_conv(a.profiles[axis], b.profiles[axis])[0], n)
            assert prod.profiles[axis].tobytes() == want.tobytes(), (axis, a.reach, b.reach)
            paths.add(a.reach[axis] + b.reach[axis] <= (n - 1) // 2)
    assert paths == {True, False}


@pytest.mark.parametrize("n", [8, 9, 32, 33])
def test_reach_at_the_edge_of_the_band(n):
    """Reaches adding up to ``n//2``: in band on an odd grid, but on an even
    one the +Nyquist bin folds onto bin 0, the -Nyquist bin."""
    g = TorusGrid((n, 8), mode="spectral" if n % 2 == 0 else "fd2")
    h = n // 2
    for ka in range(h + 1):
        for kb in (h - ka, h - 1 - ka):
            if kb < 0:
                continue
            a, b = wave(g, (ka, 0), mask=0b1), wave(g, (kb, 0), amp=0.5)
            assert (a.reach, b.reach) == ((ka, 0), (kb, 0))
            prod = a * b
            want = _fold(_profile_conv(a.profiles[0], b.profiles[0])[0], n)
            assert prod.profiles[0].tobytes() == want.tobytes(), (ka, kb)
            assert prod.reach == (h if ka + kb == h else ka + kb, 0)
            if n % 2 == 0 and ka + kb == h and 0 < ka < h:
                # both Nyquist halves land on bin 0 (a Nyquist factor has
                # only the -Nyquist one)
                centre = np.convolve(a.profiles[0], b.profiles[0])[h]
                assert prod.profiles[0][0] == 2 * centre > 0
