import numpy as np
import pytest

from supertorus.fields import TorsionField
from supertorus.geometry import (
    FrameField,
    NonOrientedFrame,
    SingularSolve,
    curvature_of_torsion,
    dirac_apply,
    divergence,
    gradient,
    integrate,
    laplacian,
    levi_civita_form,
    spin_cov_deriv,
    sum_fields,
)
from supertorus.grassmann import NoBody
from supertorus.grids import EPS, GridScalar, TorusGrid


def grid(mode="spectral", shape=(32, 32)):
    return TorusGrid(shape, mode)


def wave(g, k, amp=1.0, trig="cos", mask=0):
    x1, x2 = g.coordinates()
    ph = 2 * np.pi * (k[0] * x1 + k[1] * x2)
    arr = amp * (np.cos(ph) if trig == "cos" else np.sin(ph))
    return GridScalar(g, {mask: arr})


def box_frame(g, sides):
    """Constant frame ``diag(1/L1, 1/L2)``: the unit grid as the flat
    rectangle with sides ``(L1, L2)``."""
    zero = GridScalar.zeros(g)
    return FrameField([[GridScalar.constant(g, 1.0 / sides[0]), zero],
                       [zero, GridScalar.constant(g, 1.0 / sides[1])]])


def cartan_residual(e: FrameField, gamma) -> float:
    """Max-abs residual of both structure equations: the oracle for
    :func:`levi_civita_form`."""
    ehat = e.coframe
    res = 0.0
    for k, sign in ((0, -1.0), (1, 1.0)):
        other = ehat[1 - k]
        dk = ehat[k][1].partial(0) - ehat[k][0].partial(1)
        wedge = gamma[0] * other[1] - gamma[1] * other[0]
        res = max(res, (dk - sign * wedge).max_abs())
    return res


def test_flat_frame_derived_data():
    g = grid()
    e = FrameField.flat(g)
    ehat, metric, rho = e.coframe, e.metric, e.density
    assert np.max(np.abs(rho.coeffs[0] - 1.0)) <= 1e-14
    assert np.max(np.abs(metric[0][0].coeffs[0] - 1.0)) <= 1e-14
    assert metric[0][1].is_zero() or metric[0][1].max_abs() <= 1e-14
    gamma = levi_civita_form(e)
    assert gamma[0].max_abs() <= 1e-14 and gamma[1].max_abs() <= 1e-14


def test_conformal_density():
    g = grid()
    u = wave(g, (1, 0), amp=0.1, trig="sin")
    e = FrameField.conformal(g, u)
    expected = np.exp(2 * u.coeffs[0])
    assert np.max(np.abs(e.density.coeffs[0] - expected)) <= 1e-12


@pytest.mark.parametrize("g", [grid(), grid("fd2", shape=(9, 9))], ids=["spectral32", "fd2odd9"])
def test_determinant_inverts_density(g):
    u = GridScalar.dual(wave(g, (1, 0), amp=0.1, trig="sin"), wave(g, (0, 1), amp=0.2))
    e = FrameField.conformal(g, u)
    # det(exp(-u) delta) = exp(-2u), with first variation -2 du exp(-2u)
    det = e.determinant
    assert set(det.coeffs) == {0, EPS}
    base = np.exp(-2 * u.coeffs[0])
    assert np.max(np.abs(det.coeffs[0] - base)) <= 1e-14
    assert np.max(np.abs(det.coeffs[EPS] + 2 * u.coeffs[EPS] * base)) <= 1e-14
    unit = det * e.density
    assert set(unit.coeffs) == {0, EPS}
    assert np.max(np.abs(unit.coeffs[0] - 1.0)) <= 1e-14
    assert np.max(np.abs(unit.coeffs[EPS])) <= 1e-14


def test_conformal_connection_closed_form():
    g = grid()
    u = wave(g, (1, 0), amp=0.1, trig="sin")
    e = FrameField.conformal(g, u)
    gamma = levi_civita_form(e)
    du2 = u.partial(1)
    du1 = u.partial(0)
    assert (gamma[0] - du2).max_abs() <= 1e-10
    assert (gamma[1] + du1).max_abs() <= 1e-10
    assert cartan_residual(e, gamma) <= 1e-10


def test_cartan_residual_random_frame():
    g = grid()
    rng = np.random.default_rng(0)

    def bump():
        f = GridScalar.zeros(g)
        for _ in range(3):
            k = (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
            f = f + wave(g, k, amp=float(rng.uniform(-0.02, 0.02)),
                         trig=rng.choice(["cos", "sin"]))
        return f

    one = GridScalar.constant(g, 1.0)
    e = FrameField([[one + bump(), bump()], [bump(), one + bump()]])
    gamma = levi_civita_form(e)
    assert cartan_residual(e, gamma) <= 1e-10


def test_coframe_inverts_frame_exactly_with_soul():
    g = grid()
    one = GridScalar.constant(g, 1.0)
    soul = wave(g, (1, 0), amp=0.3, mask=0b11)
    zero = GridScalar.zeros(g)
    e = FrameField([[one + soul, wave(g, (0, 1), amp=0.1, mask=0b1100)],
                    [zero, one]])
    ehat = e.coframe
    for k in range(2):
        for l in range(2):
            dot = ehat[k][0] * e.comps[l][0] + ehat[k][1] * e.comps[l][1]
            target = 1.0 if k == l else 0.0
            assert (dot - target).max_abs() <= 1e-13


def test_non_oriented_frame_rejected():
    g = grid()
    one = GridScalar.constant(g, 1.0)
    bad = wave(g, (1, 0), amp=2.0)  # 1 + 2cos crosses zero
    zero = GridScalar.zeros(g)
    with pytest.raises(NonOrientedFrame):
        FrameField([[one + bad, zero], [zero, one]])


def test_frame_must_be_two_by_two():
    one = GridScalar.constant(grid(), 1.0)
    for comps in ([[one]], [[one, one]], [[one, one], [one]],
                  [[one, one, one], [one, one, one]], [[one, one]] * 3, [one, one]):
        with pytest.raises(ValueError, match="2x2"):
            FrameField(comps)


def test_nan_conformal_factor_rejected():
    g = grid()
    u = wave(g, (1, 0), amp=0.1).coeffs[0].copy()
    u[3, 5] = np.nan
    with pytest.raises(NonOrientedFrame):
        FrameField.conformal(g, GridScalar(g, {0: u}))


@pytest.mark.parametrize("inf", [np.inf, -np.inf])
def test_infinite_frame_fails_at_its_density(inf):
    """+inf on the diagonal, or -inf off it against a positive partner, makes
    the determinant body +inf at one point and positive everywhere else: the
    frame is built, and its density and coframe raise."""
    g = grid()
    arr = wave(g, (1, 0), amp=0.1).coeffs[0].copy()
    arr[3, 5] = inf
    with np.errstate(all="ignore"):  # the profile transform meets the inf
        bad = GridScalar(g, {0: arr})
    one, half, zero = (GridScalar.constant(g, c) for c in (1.0, 0.5, 0.0))
    e = FrameField([[one + bad, zero], [zero, one]] if inf > 0 else [[one, bad], [half, one]])
    assert e.determinant.coeffs[0][3, 5] == np.inf
    with pytest.raises(NoBody, match="infinite"):
        e.density
    with pytest.raises(SingularSolve, match="infinite"):
        e.coframe


def test_spin_cov_deriv_constant_flat():
    g = grid()
    e = FrameField.flat(g)
    s = [GridScalar.constant(g, 1.0), GridScalar.constant(g, -0.5)]
    out = spin_cov_deriv(s, e)
    for a in range(2):
        for mu in range(2):
            assert out[a][mu].max_abs() <= 1e-14


def test_spin_cov_deriv_parity():
    g = grid()
    e = FrameField.flat(g)
    s = [wave(g, (1, 0), mask=0b1), wave(g, (0, 1), mask=0b10)]
    out = spin_cov_deriv(s, e)
    for a in range(2):
        for mu in range(2):
            assert out[a][mu].parity in (1, 0)
            assert out[a][mu].parity == 1 or out[a][mu].is_zero()


def test_dirac_constant_and_single_mode():
    g = grid()
    e = box_frame(g, (2.0, 1.0))
    zero = GridScalar.zeros(g)
    psi = [[GridScalar.constant(g, 1.0)], [GridScalar.constant(g, -2.0)]]
    out = dirac_apply(psi, e)
    assert out[0][0].max_abs() <= 1e-14 and out[1][0].max_abs() <= 1e-14

    s_mode = wave(g, (1, 0), trig="sin")
    psi = [[s_mode], [zero]]
    out = dirac_apply(psi, e)
    expected = (2 * np.pi / 2.0) * wave(g, (1, 0), trig="cos").coeffs[0]
    # gamma^1 (s, 0) = (s, 0)
    assert np.max(np.abs(out[0][0].coeffs[0] - expected)) <= 1e-12
    assert out[1][0].max_abs() <= 1e-10


def test_dirac_squares_to_laplacian():
    g = grid()
    e = FrameField.flat(g)
    f1 = wave(g, (1, 2), trig="sin", mask=0b1)
    f2 = wave(g, (2, 0), trig="cos", mask=0b10)
    psi = [[f1], [f2]]
    twice = dirac_apply(dirac_apply(psi, e), e)
    for k, f in ((0, f1), (1, f2)):
        lap = f.partial(0).partial(0) + f.partial(1).partial(1)
        diff = twice[k][0] - lap
        assert diff.max_abs() <= 1e-10 * max(1.0, lap.max_abs())


def test_curvature_examples():
    g = grid()
    A = TorsionField([GridScalar.constant(g, 0.3), GridScalar.zeros(g)])
    assert curvature_of_torsion(A).max_abs() <= 1e-14

    A = TorsionField([wave(g, (0, 1), trig="sin"), GridScalar.zeros(g)])
    f = curvature_of_torsion(A)
    expected = -2 * np.pi * wave(g, (0, 1), trig="cos").coeffs[0]
    assert np.max(np.abs(f.coeffs[0] - expected)) <= 1e-12

    u = wave(g, (1, 1), amp=0.4)
    exact = TorsionField([u.partial(0), u.partial(1)])
    assert curvature_of_torsion(exact).max_abs() <= 1e-10


def test_integrate_and_gradient_energy():
    g = grid()
    e = box_frame(g, (2.0, 1.0))
    const = GridScalar.constant(g, 0.7)
    assert abs(integrate(const, e).coeffs[0] - 0.7 * 2.0) <= 1e-13

    phi = wave(g, (1, 0), trig="sin")
    grad = gradient(phi, e)
    energy = integrate(
        grad[0] * phi.partial(0) + grad[1] * phi.partial(1), e)
    expected = (2 * np.pi / 2.0) ** 2 * 2.0 / 2.0
    assert abs(energy.coeffs[0] - expected) <= 1e-11


def test_divergence_theorem_curved():
    g = grid()
    u = wave(g, (1, 0), amp=0.15, trig="sin")
    e = FrameField.conformal(g, u)
    J = [wave(g, (1, 1), trig="sin"), wave(g, (2, 0))]
    total = integrate(divergence(J, e), e)
    assert total.max_abs() <= 1e-12


def test_laplacian_matches_flat_formula():
    g = grid()
    e = FrameField.flat(g)
    phi = wave(g, (2, 1), trig="sin")
    lap = laplacian(phi, e)
    direct = phi.partial(0).partial(0) + phi.partial(1).partial(1)
    assert (lap - direct).max_abs() <= 1e-9 * max(1.0, direct.max_abs())


def test_sum_fields_draws_one_term_per_addition(monkeypatch):
    g = grid(shape=(16, 16))
    terms = [wave(g, (k, 1), amp=0.3 * k + 0.1, mask=k % 2) for k in range(4)]
    want = ((terms[0] + terms[1]) + terms[2]) + terms[3]
    adds = []
    add = GridScalar.__add__

    def counting_add(self, other):
        adds.append(other)
        return add(self, other)

    def lazy():
        for k, term in enumerate(terms):
            # every term drawn before this one is already added
            assert len(adds) == max(k - 1, 0)
            yield term

    monkeypatch.setattr(GridScalar, "__add__", counting_add)
    total = sum_fields(lazy())
    assert adds == terms[1:]
    assert total.coeffs.keys() == want.coeffs.keys()
    for m, arr in want.coeffs.items():
        assert total.coeffs[m].tobytes() == arr.tobytes(), m
    assert sum_fields(iter([terms[2]])) is terms[2]


@pytest.mark.parametrize("empty", [[], (), iter([])])
def test_sum_fields_rejects_no_terms(empty):
    with pytest.raises(ValueError, match="at least one field"):
        sum_fields(empty)
