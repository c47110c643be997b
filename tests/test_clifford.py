import numpy as np
import pytest
from fractions import Fraction

from supertorus.clifford import (
    ACI,
    GAMMA1,
    GAMMA2,
    GAMMA12,
    RingMismatch,
    mat_apply,
    omega,
    quantize,
    symplectic_dual,
    theta_insert,
)
from supertorus.fields import quantize_frame_values, spin32_frame_values
from supertorus.grassmann import GrassmannElement, random_element

N = 8
INV_SQRT2 = 2.0 ** -0.5
# Weyl frame w = (s1 - i s2)/sqrt(2), its conjugate, and the dual coframe of
# (e1 - i e2)/sqrt(2) with its conjugate
W = (INV_SQRT2, -1j * INV_SQRT2)
WBAR = (INV_SQRT2, 1j * INV_SQRT2)
THETA = (INV_SQRT2, 1j * INV_SQRT2)
THETA_BAR = (INV_SQRT2, -1j * INV_SQRT2)
# Spinors are pairs (s0, s1); one-forms and frame values use the action's
# layout vals[k][a]: spinor component a of the gravitino on frame vector k.


def metric(s, t):
    """Metric pairing of two spinors, component products in argument order."""
    return s[0] * t[0] + s[1] * t[1]


def rand_spinor(rng, parity=None):
    return (random_element(rng, N, parity=parity), random_element(rng, N, parity=parity))


def rand_vals(rng):
    return [[random_element(rng, N) for _ in range(2)] for _ in range(2)]


def magnitude(x):
    return x.max_abs() if isinstance(x, GrassmannElement) else abs(x)


def assert_close(got, want, tol=1e-13):
    """Entrywise closeness of equally nested sequences of ring elements."""
    if isinstance(got, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_close(g, w, tol)
    else:
        assert magnitude(got - want) <= tol


def test_clifford_act_representation():
    assert mat_apply(GAMMA1, (1.0, 0.0)) == (1.0, 0.0)
    assert mat_apply(GAMMA2, (1.0, 0.0)) == (0.0, 1.0)


def test_clifford_relation_orthogonal_anticommute():
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = rand_spinor(rng)
        g1g2 = mat_apply(GAMMA1, mat_apply(GAMMA2, s))
        g2g1 = mat_apply(GAMMA2, mat_apply(GAMMA1, s))
        assert_close([a + b for a, b in zip(g1g2, g2g1)], [0, 0], tol=1e-14)


def test_clifford_relation_squares_to_norm():
    rng = np.random.default_rng(1)
    for _ in range(100):
        s = rand_spinor(rng)
        for gamma in (GAMMA1, GAMMA2):
            assert mat_apply(gamma, mat_apply(gamma, s)) == s


def test_ring_mismatch():
    # in quantize; a number and a Grassmann element on different frame legs
    with pytest.raises(RingMismatch):
        quantize([[1.0, 0.0], [GrassmannElement.one(), 0.0]])


def test_ring_mismatch_in_theta_insert():
    with pytest.raises(RingMismatch):
        theta_insert((1.0, GrassmannElement.one()))


def test_ring_mismatch_in_omega():
    with pytest.raises(RingMismatch):
        omega((1.0, 0.0), (GrassmannElement.one(), GrassmannElement.zero()))


def test_quantize_on_simple_tensor():
    # s1 (x) e^1
    assert quantize_frame_values([[1.0, 0.0], [0.0, 0.0]]) == [1.0, 0.0]


def test_quantize_theta_insert_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = rand_spinor(rng)
        assert_close(quantize(theta_insert(s)), s, tol=1e-14)


def test_quantize_kills_q_image_pattern():
    # w (x) thetabar
    vals = [[co * x for x in W] for co in THETA_BAR]
    assert_close(quantize_frame_values(vals), [0, 0], tol=1e-15)


def test_theta_insert_explicit():
    assert_close(theta_insert((1.0, 0.0)), ((0.5, 0.0), (0.0, 0.5)))
    assert_close(theta_insert((0.0, 0.0)), ((0.0, 0.0), (0.0, 0.0)))


def test_projector_algebra():
    # P chi = theta(quantize(chi)) and Q = 1 - P, as the action splits them
    rng = np.random.default_rng(3)
    for _ in range(40):
        vals = rand_vals(rng)
        s = quantize_frame_values(vals)
        q = spin32_frame_values(vals, s)
        p = theta_insert(s)
        assert_close([[p[k][a] + q[k][a] for a in range(2)] for k in range(2)],
                     vals, tol=1e-14)
        assert_close(quantize_frame_values(p), s, tol=1e-14)   # PP = P
        assert_close(spin32_frame_values(p, s), [[0, 0], [0, 0]], tol=1e-14)  # QP = 0
        q_of_q = quantize_frame_values(q)
        assert_close(q_of_q, [0, 0], tol=1e-14)                  # PQ = 0
        assert_close(spin32_frame_values(q, q_of_q), q, tol=1e-14)  # QQ = Q


def test_projectors_exact_in_rational_mode():
    vals = [
        [GrassmannElement({0: Fraction(2, 3)}), GrassmannElement({0b10: Fraction(-1, 2)})],
        [GrassmannElement({0b1: Fraction(5, 7)}), GrassmannElement({0: Fraction(4, 9)})],
    ]
    s = quantize_frame_values(vals)
    q = spin32_frame_values(vals, s)
    p = theta_insert(s)
    assert any(c != 0 for row in q for c in row)
    for k in range(2):
        for a in range(2):
            assert p[k][a] + q[k][a] == vals[k][a]
    assert quantize_frame_values(p) == s
    q_of_q = quantize_frame_values(q)
    assert q_of_q == [GrassmannElement.zero()] * 2
    assert spin32_frame_values(q, q_of_q) == q
    assert spin32_frame_values(p, s) == [[GrassmannElement.zero()] * 2] * 2


def test_projectors_self_adjoint():
    rng = np.random.default_rng(4)
    for _ in range(40):
        z, w = ([[float(rng.uniform(-1, 1)) for _ in range(2)] for _ in range(2)]
                for _ in range(2))
        qz = spin32_frame_values(z, quantize_frame_values(z))
        qw = spin32_frame_values(w, quantize_frame_values(w))
        lhs = sum(qz[k][a] * w[k][a] for k in range(2) for a in range(2))
        rhs = sum(z[k][a] * qw[k][a] for k in range(2) for a in range(2))
        assert abs(lhs - rhs) <= 1e-14


def test_image_characterization():
    # spin-1/2 image is spanned by {w(x)theta, wbar(x)thetabar},
    # spin-3/2 image by {w(x)thetabar, wbar(x)theta}
    for s, co in ((W, THETA), (WBAR, THETA_BAR)):
        vals = [[co[k] * s[a] for a in range(2)] for k in range(2)]
        assert_close(spin32_frame_values(vals, quantize_frame_values(vals)),
                     [[0, 0], [0, 0]], tol=1e-14)
    for s, co in ((W, THETA_BAR), (WBAR, THETA)):
        vals = [[co[k] * s[a] for a in range(2)] for k in range(2)]
        assert_close(spin32_frame_values(vals, quantize_frame_values(vals)),
                     vals, tol=1e-14)


def test_metric_pair_example():
    assert metric((1.0, 0.0), (1.0, 0.0)) == 1.0


def test_symplectic_normalization():
    assert omega((1.0, 0.0), (0.0, 1.0)) == 1.0


def test_symplectic_skewness_of_clifford_action():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = rand_spinor(rng, parity=1)
        t = rand_spinor(rng, parity=1)
        for gamma in (GAMMA1, GAMMA2):
            total = omega(s, mat_apply(gamma, t)) + omega(mat_apply(gamma, s), t)
            assert total.max_abs() <= 1e-14


def test_metric_symmetry_of_clifford_action():
    rng = np.random.default_rng(6)
    for _ in range(50):
        s, t = rand_spinor(rng), rand_spinor(rng)
        for gamma in (GAMMA1, GAMMA2):
            diff = metric(s, mat_apply(gamma, t)) - metric(mat_apply(gamma, s), t)
            assert diff.max_abs() <= 1e-14


def test_odd_pair_exchange_signs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = rand_spinor(rng, parity=1)
        t = rand_spinor(rng, parity=1)
        assert (metric(s, t) + metric(t, s)).max_abs() <= 1e-14
        assert (omega(s, t) - omega(t, s)).max_abs() <= 1e-14


def test_symplectic_dual_frame_images():
    assert symplectic_dual((1.0, 0.0)) == (0.0, 1.0)   # s1 -> s^2
    assert symplectic_dual((0.0, 1.0)) == (-1.0, 0.0)  # s2 -> -s^1


def test_weyl_split_examples():
    # s1 = (w + wbar)/sqrt(2) and s2 = i (w - wbar)/sqrt(2)
    assert_close([(x + y) * INV_SQRT2 for x, y in zip(W, WBAR)], [1, 0], tol=1e-15)
    assert_close([1j * (x - y) * INV_SQRT2 for x, y in zip(W, WBAR)], [0, 1], tol=1e-15)


def test_weyl_split_diagonalises_aci():
    assert_close(mat_apply(ACI, W), [1j * x for x in W], tol=1e-15)
    assert_close(mat_apply(ACI, WBAR), [-1j * x for x in WBAR], tol=1e-15)
    rng = np.random.default_rng(9)
    for _ in range(20):
        zw, zb = (complex(*rng.uniform(-1, 1, size=2)) for _ in range(2))
        s = tuple(zw * x + zb * y for x, y in zip(W, WBAR))
        want = [1j * zw * x - 1j * zb * y for x, y in zip(W, WBAR)]
        assert_close(mat_apply(ACI, s), want)


def test_weyl_split_real_input_conjugate_pair():
    # wbar is the conjugate of w, so conjugate Weyl coefficients give a real spinor
    assert WBAR == tuple(x.conjugate() for x in W)
    zw = 0.3 - 1.2j
    s = [zw * x + zw.conjugate() * y for x, y in zip(W, WBAR)]
    assert max(abs(c.imag) for c in s) <= 1e-15


def test_decompose_form_examples():
    # s1 (x) e^1 = theta(s1) + g with quantize(g) = 0
    vals = [[1.0, 0.0], [0.0, 0.0]]
    s = quantize_frame_values(vals)
    assert s == [1.0, 0.0]
    g = spin32_frame_values(vals, s)
    assert_close(g, [[0.5, 0.0], [0.0, -0.5]])
    g_s = quantize_frame_values(g)
    assert_close(g_s, [0, 0], tol=1e-15)
    assert_close(spin32_frame_values(g, g_s), g, tol=1e-15)

    vals = theta_insert((0.7, -0.2))
    s = quantize_frame_values(vals)
    assert_close(s, [0.7, -0.2], tol=1e-15)
    assert_close(spin32_frame_values(vals, s), [[0, 0], [0, 0]], tol=1e-15)

    zero = [[0.0, 0.0], [0.0, 0.0]]
    assert quantize_frame_values(zero) == [0.0, 0.0]


def test_parity_transport():
    rng = np.random.default_rng(10)
    for _ in range(20):
        s = rand_spinor(rng, parity=1)
        outs = [mat_apply(gamma, s) for gamma in (GAMMA1, GAMMA2, GAMMA12)]
        outs.append(quantize(theta_insert(s)))
        for out in outs:
            for c in out:
                assert c.parity in (1, 0) and (c.parity == 1 or not c.coeffs)
        pair = omega(s, s)
        assert pair.parity in (0, None) and pair.parity == 0


def test_gamma12_matches_matrix_product():
    rng = np.random.default_rng(11)
    s = rand_spinor(rng)
    assert_close(mat_apply(GAMMA1, mat_apply(GAMMA2, s)), mat_apply(GAMMA12, s),
                 tol=1e-15)
