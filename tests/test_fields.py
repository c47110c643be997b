import numpy as np
import pytest

from supertorus.fields import (
    BranchCutWarning,
    GeneratorBudgetExceeded,
    GravitinoField,
    ModeSpec,
    ParityMismatch,
    SpinorField,
    classical_torsion_recovery,
    factorize_torsion,
    gravitino_frame_values,
    gravitino_split,
    holomorphy_residual,
    make_trig_field,
    q_part,
    torsion_from_gravitino,
)
from supertorus.geometry import FrameField
from supertorus.grids import GridScalar, TorusGrid


def grid(shape=(32, 32), periods=(1.0, 1.0)):
    return TorusGrid(shape, periods)


def flat(g):
    return FrameField.flat(g)


def test_empty_spec_gives_zero_field():
    g = grid()
    psi = make_trig_field("spinor", [], g)
    assert psi.all_zero()


def test_constant_odd_mode():
    g = grid()
    s = make_trig_field("varspinor", [ModeSpec("varspinor", (0,), (0, 0), 1.0, 6)], g)
    assert set(s.comps[0].coeffs) == {1 << 6}
    assert np.all(s.comps[0].coeffs[1 << 6] == 1.0)
    assert s.parity == 1


def test_cross_monomial_from_disjoint_generators():
    g = grid()
    a = make_trig_field("spinor", [ModeSpec("spinor", (0, 0), (1, 0), 1.0, 0)], g)
    b = make_trig_field("spinor", [ModeSpec("spinor", (0, 0), (1, 0), 1.0, 1)], g)
    prod = a.comps[0][0] * b.comps[0][0]
    assert set(prod.coeffs) == {0b11}
    assert (a.comps[0][0] * a.comps[0][0]).is_zero()


def test_generator_block_discipline():
    g = grid()
    with pytest.raises(GeneratorBudgetExceeded):
        make_trig_field("spinor", [ModeSpec("spinor", (0, 0), (1, 0), 1.0, 5)], g)
    with pytest.raises(GeneratorBudgetExceeded):
        make_trig_field("map", [ModeSpec("map", (0,), (1, 0), 1.0, 0)], g)
    with pytest.raises(GeneratorBudgetExceeded):
        make_trig_field("varspinor", [ModeSpec("varspinor", (0,), (0, 0), 1.0, 9)], g)


def test_wavevector_sign_convention():
    g = grid()
    phi_cos = make_trig_field("map", [ModeSpec("map", (0,), (1, 0), 2.0)], g, dim=1)
    phi_sin = make_trig_field("map", [ModeSpec("map", (0,), (-1, 0), 2.0)], g, dim=1)
    x1, _ = g.coordinates()
    assert np.max(np.abs(phi_cos.comps[0].coeffs[0] - 2 * np.cos(2 * np.pi * x1))) <= 1e-14
    assert np.max(np.abs(phi_sin.comps[0].coeffs[0] - 2 * np.sin(2 * np.pi * x1))) <= 1e-14


def torsion_const(g, values):
    return [GridScalar.constant(g, values[0]), GridScalar.constant(g, values[1])]


def recovery_residual(A, e):
    chi = factorize_torsion(A, e)
    rec = classical_torsion_recovery(chi, e)
    return max((rec[mu] - A[mu]).max_abs() for mu in range(2))


def test_factorize_zero():
    g = grid()
    e = flat(g)
    chi = factorize_torsion(torsion_const(g, (0.0, 0.0)), e)
    assert chi.all_zero()
    assert recovery_residual(torsion_const(g, (0.0, 0.0)), e) <= 1e-14


def test_factorize_unit_dx1():
    g = grid()
    e = flat(g)
    A = torsion_const(g, (1.0, 0.0))
    chi = factorize_torsion(A, e)
    assert recovery_residual(A, e) <= 1e-10
    # the spin-1/2 part is proportional to the first frame spinor
    s, _ = gravitino_split(chi, e)
    assert s.comps[1].max_abs() <= 1e-14
    assert s.comps[0].max_abs() > 0.5


def test_factorize_positive_band_limited():
    g = grid()
    e = flat(g)
    base = make_trig_field("torsion", [
        ModeSpec("torsion", (0,), (0, 0), 1.5),
        ModeSpec("torsion", (0,), (-1, 0), np.cos(1.2)),
        ModeSpec("torsion", (0,), (1, 0), np.sin(1.2)),
        ModeSpec("torsion", (1,), (0, 1), 0.3),
    ], g)
    assert recovery_residual(base, e) <= 1e-10


def test_factorize_random_family():
    rng = np.random.default_rng(42)
    g = grid()
    e = flat(g)
    for _ in range(20):
        A = [GridScalar.zeros(g), GridScalar.zeros(g)]
        A[0] = A[0] + GridScalar.constant(g, float(rng.uniform(0.5, 2.0)))
        for mu in range(2):
            for _ in range(2):
                k = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
                spec = ModeSpec("torsion", (mu,), k, float(rng.uniform(-0.12, 0.12)))
                A[mu] = A[mu] + GridScalar(
                    g, {0: __import__("supertorus.fields", fromlist=["_trig_array"])
                        ._trig_array(g, spec.wavevector, spec.amplitude)})
        assert recovery_residual(A, e) <= 1e-10


def test_factorize_warns_on_branch_cut():
    g = grid()
    e = flat(g)
    A = torsion_const(g, (-1.0, 0.0))  # a = -1 sits on the cut
    with pytest.warns(BranchCutWarning):
        factorize_torsion(A, e)


def test_factorization_rotation_weights():
    # rotating the frame components of A by alpha turns the spin-1/2
    # coefficients by alpha/2 and the spin-3/2 coefficients by -3 alpha/2
    g = grid()
    e = flat(g)
    alpha = 0.37

    def parts(A):
        chi = factorize_torsion(A, e)
        vals = gravitino_frame_values(chi, e)
        s, gpart = gravitino_split(chi, e)
        sc = (s.comps[0].coeffs.get(0, np.zeros(g.shape))[0, 0],
              s.comps[1].coeffs.get(0, np.zeros(g.shape))[0, 0])
        gv = gravitino_frame_values(gpart, e)
        gc = (gv[0][0].coeffs.get(0, np.zeros(g.shape))[0, 0],
              gv[0][1].coeffs.get(0, np.zeros(g.shape))[0, 0])
        return np.array(sc), np.array(gc)

    A = torsion_const(g, (1.3, 0.4))
    ar = (1.3 * np.cos(alpha) - 0.4 * np.sin(alpha),
          1.3 * np.sin(alpha) + 0.4 * np.cos(alpha))
    s0, g0 = parts(A)
    s1, g1 = parts(torsion_const(g, ar))

    def rot(v, ang):
        c, s_ = np.cos(ang), np.sin(ang)
        return np.array([c * v[0] - s_ * v[1], s_ * v[0] + c * v[1]])

    assert np.max(np.abs(s1 - rot(s0, alpha / 2))) <= 1e-12
    assert np.max(np.abs(g1 - rot(g0, 3 * alpha / 2))) <= 1e-12


def test_torsion_from_gravitino_single_generator_vanishes():
    g = grid()
    e = flat(g)
    chi = make_trig_field("gravitino", [
        ModeSpec("gravitino", (0, 0), (1, 0), 1.0, 3),
        ModeSpec("gravitino", (1, 1), (0, 1), 0.5, 3),
    ], g)
    A = torsion_from_gravitino(chi, e)
    assert A[0].max_abs() <= 1e-15 and A[1].max_abs() <= 1e-15


def test_torsion_from_gravitino_cross_monomial():
    g = grid()
    e = flat(g)
    chi = make_trig_field("gravitino", [
        ModeSpec("gravitino", (0, 0), (0, 0), 1.0, 3),
        ModeSpec("gravitino", (1, 0), (0, 0), 0.5, 4),
    ], g)
    A = torsion_from_gravitino(chi, e)
    # direct expansion: chi(e_1) = (t3 + 0.5 t4, 0), chi(e_2) = 0;
    # q = gamma^1 chi(e_1) = (t3 + 0.5 t4, 0); omega(q, chi(e_1)) = 0... both
    # components along s_1 only, so A_1 = q_0 chi_11 - q_1 chi_10 = 0 - 0
    assert A[0].max_abs() <= 1e-15
    chi2 = make_trig_field("gravitino", [
        ModeSpec("gravitino", (0, 0), (0, 0), 1.0, 3),
        ModeSpec("gravitino", (1, 0), (0, 0), 0.5, 4),
        ModeSpec("gravitino", (0, 1), (0, 0), 1.0, 5),
    ], g)
    A2 = torsion_from_gravitino(chi2, e)
    # now q = (t3 + .5 t4 + ..., ...) picks up mixed monomials
    assert A2[0].max_abs() > 0.1
    for mu in range(2):
        assert A2[mu].parity == 0
        assert 0 not in A2[mu].coeffs  # zero body, nilpotent


def test_torsion_from_gravitino_rejects_even():
    g = grid()
    e = flat(g)
    chi = GravitinoField([[GridScalar.constant(g, 1.0), GridScalar.zeros(g)],
                          [GridScalar.zeros(g), GridScalar.zeros(g)]])
    with pytest.raises(ParityMismatch):
        torsion_from_gravitino(chi, e)


def test_q_part_annihilated_by_quantize():
    g = grid()
    e = flat(g)
    chi = make_trig_field("gravitino", [
        ModeSpec("gravitino", (0, 0), (1, 0), 1.0, 3),
        ModeSpec("gravitino", (1, 1), (0, -1), 0.7, 4),
        ModeSpec("gravitino", (0, 1), (1, 1), 0.3, 5),
    ], g)
    s, gpart = gravitino_split(chi, e)
    rebuilt = q_part(chi, e)
    from supertorus.fields import quantize_frame_values
    qvals = quantize_frame_values(gravitino_frame_values(gpart, e))
    assert qvals[0].max_abs() <= 1e-13 and qvals[1].max_abs() <= 1e-13
    for a in range(2):
        for mu in range(2):
            assert (rebuilt.comps[a][mu] - gpart.comps[a][mu]).max_abs() <= 1e-13


def test_holomorphy_residual_constant_and_witness():
    g = grid()
    e = flat(g)
    const = SpinorField([
        GridScalar.constant(g, __import__("supertorus.grassmann", fromlist=["GrassmannElement"]).GrassmannElement.generator(6, 8)),
        GridScalar.zeros(g),
    ])
    assert holomorphy_residual(const, e) <= 1e-12

    wiggly = make_trig_field("varspinor", [
        ModeSpec("varspinor", (0,), (-1, 0), 1.0, 6)], g)
    assert holomorphy_residual(wiggly, e) > 0.1
