import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from supertorus.grassmann import (
    EPS,
    GeneratorMismatch,
    GrassmannElement,
    NoBody,
    mul_sign,
    random_element,
)

N = 8


def g(i, coeff=1.0):
    return GrassmannElement.generator(i, coeff)


def one(c=1.0):
    return GrassmannElement.scalar(c)


def eps(x):
    """``eps * x``, built from the masks: each monomial of ``x`` under ``EPS``."""
    return GrassmannElement({m | EPS: c for m, c in x.coeffs.items()})


def test_mul_sign_basics():
    assert mul_sign(0b01, 0b10) == 1
    assert mul_sign(0b10, 0b01) == -1
    assert mul_sign(0, 0b1011) == 1


def test_product_of_distinct_generators():
    assert g(0) * g(1) == GrassmannElement.monomial([0, 1])


def test_anticommutation():
    assert g(1) * g(0) == GrassmannElement.monomial([0, 1], -1.0)


def test_generator_squares_to_zero():
    x = one() + g(0)
    assert x * x == one() + g(0, 2.0)


def test_inverse_scalar():
    assert GrassmannElement.scalar(2.0).inverse() == one(0.5)


def test_inverse_kills_nilpotent_tail():
    x = one() + GrassmannElement.monomial([0, 1])
    assert x.inverse() == one() - GrassmannElement.monomial([0, 1])


def test_inverse_without_body_raises():
    with pytest.raises(NoBody):
        g(0).inverse()


def test_dual_mul_eps_squares_away():
    a = one() + eps(g(0))
    b = one() + eps(g(1))
    assert a * b == one() + eps(g(0) + g(1))


def test_eps_squares_to_zero():
    e = eps(one())
    assert e * e == GrassmannElement.zero()
    assert eps(g(0)) * eps(g(1)) == GrassmannElement.zero()


def test_dual_mul_plain_scalars():
    # (2 + 5 eps)(3 + 7 eps) = 6 + 29 eps
    a = one(2.0) + eps(one(5.0))
    b = one(3.0) + eps(one(7.0))
    assert a * b == one(6.0) + eps(one(29.0))
    assert (one(2.0) * one(3.0)).variation == GrassmannElement.zero()


def test_dual_mul_odd_value_with_unit_variation():
    # (g0 + eps)*(g0 + eps) = g0*g0 + eps*(g0 + g0) = 0 + eps*2*g0
    a = g(0) + eps(one())
    assert a * a == eps(g(0, 2.0))


def test_parity_ignores_eps():
    assert eps(one()).parity == 0
    assert (g(0) + eps(g(1))).parity == 1
    assert (one() + eps(g(1))).parity is None
    # eps commutes with odd generators: no sign either way
    assert eps(one()) * g(3) == g(3) * eps(one()) == eps(g(3))


def test_eps_masks_keep_the_generator_range():
    GrassmannElement({EPS | 0xFFFF: 1.0})
    for mask in (2 * EPS, 2 * EPS | 0b1, -1):
        with pytest.raises(GeneratorMismatch):
            GrassmannElement({mask: 1.0})
    # generator 16 is not eps
    assert GrassmannElement.monomial([0, 15]) == GrassmannElement({0b1 | 1 << 15: 1.0})
    for index in (16, -1):
        with pytest.raises(GeneratorMismatch):
            GrassmannElement.monomial([0, index])
        with pytest.raises(GeneratorMismatch):
            GrassmannElement.generator(index)


def test_value_and_variation_split_the_eps_monomials():
    x = GrassmannElement({0: 1.0, 0b11: 2.0, EPS: 3.0, EPS | 0b101: 4.0})
    assert x.value == GrassmannElement({0: 1.0, 0b11: 2.0})
    assert x.variation == GrassmannElement({0: 3.0, 0b101: 4.0})
    assert x.value + eps(x.variation) == x
    assert repr(x) == "1.0 + 2.0*g0*g1 + 3.0*eps + 4.0*g0*g2*eps"


def test_associativity_float_mode():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = random_element(rng, N)
        b = random_element(rng, N)
        c = random_element(rng, N)
        lhs = (a * b) * c
        rhs = a * (b * c)
        scale = max(1.0, a.max_abs() * b.max_abs() * c.max_abs())
        assert (lhs - rhs).max_abs() <= 1e-14 * scale


def test_associativity_exact_mode():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = random_element(rng, N, exact=True)
        b = random_element(rng, N, exact=True)
        c = random_element(rng, N, exact=True)
        assert (a * b) * c == a * (b * c)


def test_graded_commutativity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        pa, pb = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        a = random_element(rng, N, parity=pa)
        b = random_element(rng, N, parity=pb)
        sign = -1 if (pa and pb) else 1
        assert (a * b - sign * (b * a)).max_abs() <= 1e-14 * max(
            1.0, a.max_abs() * b.max_abs())


def test_soul_nilpotency():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = random_element(rng, N, terms=10)
        power = a.soul
        for _ in range(N):
            power = power * a.soul
        assert power == GrassmannElement.zero()


def test_inverse_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(200):
        body = float(rng.uniform(0.1, 2.0)) * float(rng.choice([-1.0, 1.0]))
        a = random_element(rng, N, terms=8, body=body)
        assert (a * a.inverse() - 1).max_abs() <= 1e-12


def test_inverse_round_trip_exact():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = random_element(rng, N, terms=6, body=1.5, exact=True)
        assert a * a.inverse() == GrassmannElement.one() + 0


def test_dual_product_rule():
    # exact coefficients: the ring sums the two Leibniz terms of each
    # monomial in its own order
    rng = np.random.default_rng(19)
    for _ in range(200):
        a, b = (random_element(rng, N, exact=True) + eps(random_element(rng, N, exact=True))
                for _ in range(2))
        prod = a * b
        assert prod.value == a.value * b.value
        assert prod.variation == a.value * b.variation + a.variation * b.value


def test_dual_inverse():
    rng = np.random.default_rng(23)
    for _ in range(50):
        a = random_element(rng, N, body=1.3) + eps(random_element(rng, N))
        prod = a * a.inverse()
        assert (prod.value - 1).max_abs() <= 1e-12
        assert prod.variation.max_abs() <= 1e-12


small_elements = st.builds(
    lambda items: GrassmannElement(dict(items)),
    st.lists(st.tuples(st.integers(0, 15), st.integers(-5, 5)), max_size=6),
)


@given(small_elements, small_elements, small_elements)
@settings(max_examples=200, deadline=None)
def test_hypothesis_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(small_elements, small_elements)
@settings(max_examples=200, deadline=None)
def test_hypothesis_addition_commutes(a, b):
    assert a + b == b + a


def test_inverse_with_eps_is_exact():
    # u = g0*g1 + g2*g3 + eps has u**3 = 6 g0*g1*g2*g3*eps: four series terms
    a = GrassmannElement({0: Fraction(2), 0b11: Fraction(1), 0b1100: Fraction(1),
                             EPS: Fraction(1)})
    assert a * a.inverse() == GrassmannElement.one() + 0
    assert a.inverse().coeffs[EPS | 0b1111] == Fraction(-6, 16)


def test_fraction_coefficients_stay_exact():
    a = GrassmannElement({0: Fraction(3, 2), 0b11: Fraction(1, 3)})
    inv = a.inverse()
    assert all(isinstance(c, Fraction) for c in inv.coeffs.values())
    assert a * inv == GrassmannElement.one() + 0
