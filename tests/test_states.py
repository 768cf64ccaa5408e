"""GHZ state algebra, cross-checked against full tensor numerics."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ghzcert import (
    CapExceededError,
    ProductOperator,
    RationalPhase,
    ZERO_PHASE,
    apply_rotations,
    dense_state,
    eigenvalue_exponent,
    expectation,
    inner_product,
    make_ghz,
)


def random_phase(rng, max_den=40):
    return RationalPhase(rng.randint(-120, 120), rng.randint(1, max_den))


def subspace_eigenphase(state, op):
    """Literal oracle: propagate each amplitude phase through the factors.

    Each factor contributes its own column phase on ket k; the result is
    an eigenstate iff the propagated phase vector differs from the
    original by one common phase.  Independent of the closed form used by
    the library.
    """
    d = state.d
    amp = state.amplitude_phases
    shifted = [None] * d
    for k in range(d):
        kick = ZERO_PHASE
        for factor_angle in op.angles:
            kick = kick + (factor_angle if k < d - 1 else factor_angle * (1 - d))
        shifted[(k + 1) % d] = amp[k] + kick
    lam = shifted[0] - amp[0]
    if all(shifted[k] - amp[k] == lam for k in range(d)):
        return lam
    return None


def test_make_ghz_examples():
    s = make_ghz(2, 3, 0)
    vec = dense_state(s)
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = 1 / math.sqrt(2)
    assert np.allclose(vec, expected)

    s2 = make_ghz(3, 2, Fraction(1, 3))
    assert [str(p) for p in s2.amplitude_phases] == ["2/3", "0/1", "1/3"]

    # a full-turn rotation of a single qubit: amplitudes all negated
    flipped = make_ghz(2, 1, 1)
    base = make_ghz(2, 1, 0)
    assert flipped.amplitude_phases == tuple(
        p + RationalPhase(1, 2) for p in base.amplitude_phases
    )
    with pytest.raises(ValueError):
        make_ghz(1, 3)
    with pytest.raises(ValueError):
        make_ghz(3, 0)


def test_apply_rotations_preserves_net_angle():
    s = make_ghz(3, 3, Fraction(1, 7))
    unchanged = apply_rotations(s, [Fraction(1, 9), Fraction(-1, 9), 0])
    assert unchanged == s

    a = apply_rotations(make_ghz(3, 3, 0), [Fraction(1, 3), 0, 0])
    b = apply_rotations(make_ghz(3, 3, 0), [Fraction(1, 9)] * 3)
    assert a == b

    rotated = apply_rotations(make_ghz(3, 4, 0), [Fraction(1, 3), 0, 0, 0])
    assert inner_product(make_ghz(3, 4, 0), rotated).is_zero

    with pytest.raises(ValueError):
        apply_rotations(s, [0, 0])


def test_inner_product_examples():
    s = make_ghz(3, 2, 0)
    same = inner_product(s, s)
    assert not same.is_zero and same.numeric == pytest.approx(1.0)

    ortho = inner_product(s, make_ghz(3, 2, Fraction(1, 3)))
    assert ortho.is_zero and ortho.numeric == 0

    half = inner_product(s, make_ghz(3, 2, Fraction(1, 2)))
    assert not half.is_zero
    assert half.numeric == pytest.approx(-1 / 3)
    # independent amplitude-sum oracle for the same value
    overlap = np.vdot(dense_state(s), dense_state(make_ghz(3, 2, Fraction(1, 2))))
    assert half.numeric == pytest.approx(overlap, abs=1e-12)

    with pytest.raises(ValueError):
        inner_product(s, make_ghz(3, 3, 0))


def test_orthonormal_family():
    for d in range(2, 13):
        states = [make_ghz(d, 3, Fraction(nu, d)) for nu in range(d)]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                result = inner_product(a, b)
                if i == j:
                    assert not result.is_zero and result.numeric == pytest.approx(1.0)
                else:
                    assert result.is_zero
                    overlap = np.vdot(dense_state(a), dense_state(b))
                    assert abs(overlap) < 1e-12


def test_eigenvalue_exponent_examples():
    s = make_ghz(4, 3, 0)
    plain = ProductOperator(4, (ZERO_PHASE,) * 3)
    assert eigenvalue_exponent(s, plain) == ZERO_PHASE

    s34 = make_ghz(3, 4, 0)
    op = ProductOperator(3, (RationalPhase(1, 9),) * 3 + (ZERO_PHASE,))
    lam = eigenvalue_exponent(s34, op)
    assert lam == RationalPhase(1, 3)
    vec = dense_state(s34)
    assert np.max(np.abs(op.apply_dense(vec) - lam.to_complex() * vec)) < 1e-12

    s32 = make_ghz(3, 2, 0)
    off_grid = ProductOperator(3, (RationalPhase(1, 18), ZERO_PHASE))
    assert eigenvalue_exponent(s32, off_grid) is None
    vec = dense_state(s32)
    overlap = abs(np.vdot(vec, off_grid.apply_dense(vec)))
    assert 1e-6 < overlap < 1 - 1e-6

    with pytest.raises(ValueError):
        eigenvalue_exponent(s32, op)


def test_eigenvalue_exponent_matches_subspace_oracle():
    rng = random.Random(31)
    for _ in range(150):
        d = rng.randint(2, 9)
        n = rng.randint(1, 6)
        state = make_ghz(d, n, Fraction(rng.randint(-8, 8), rng.randint(1, 15)))
        op = ProductOperator(d, tuple(random_phase(rng) for _ in range(n)))
        assert eigenvalue_exponent(state, op) == subspace_eigenphase(state, op)


def test_covariance_of_eigenphases():
    rng = random.Random(37)
    for _ in range(200):
        d = rng.randint(2, 9)
        n = rng.randint(2, 8)
        nu, mu = rng.randrange(d), rng.randrange(d)
        angles = [random_phase(rng) for _ in range(n - 1)]
        last = RationalPhase(nu, d) - sum(angles, ZERO_PHASE)
        op = ProductOperator(d, tuple(angles) + (last,))
        assert eigenvalue_exponent(make_ghz(d, n, 0), op) == RationalPhase(nu, d)
        rotated_state = make_ghz(d, n, Fraction(mu, d))
        assert eigenvalue_exponent(rotated_state, op) == RationalPhase(nu - mu, d)


def test_equal_sums_give_equal_exponents():
    rng = random.Random(41)
    for _ in range(60):
        d = rng.randint(2, 8)
        n = rng.randint(2, 6)
        angles = [random_phase(rng) for _ in range(n)]
        total = sum(angles, ZERO_PHASE)
        redistributed = [total] + [ZERO_PHASE] * (n - 1)
        state = make_ghz(d, n, Fraction(rng.randint(0, 3), rng.randint(1, 9)))
        a = eigenvalue_exponent(state, ProductOperator(d, tuple(angles)))
        b = eigenvalue_exponent(state, ProductOperator(d, tuple(redistributed)))
        assert a == b


def test_expectation_examples():
    s = make_ghz(5, 3, 0)
    plain = ProductOperator(5, (ZERO_PHASE,) * 3)
    assert expectation(s, plain).numeric == pytest.approx(1.0)

    e = expectation(make_ghz(2, 2, 0), ProductOperator(2, (RationalPhase(1, 4), ZERO_PHASE)))
    assert e.numeric == pytest.approx(0, abs=1e-15)

    five = expectation(
        make_ghz(3, 5, 0),
        ProductOperator(3, (RationalPhase(1, 7),) + (ZERO_PHASE,) * 4),
    )
    one = expectation(make_ghz(3, 1, 0), ProductOperator(3, (RationalPhase(1, 7),)))
    assert five.phases == one.phases
    assert abs(five.numeric - one.numeric) < 1e-12


def test_expectation_matches_dense():
    rng = random.Random(43)
    for _ in range(60):
        d = rng.randint(2, 4)
        n = rng.randint(1, 5)
        state = make_ghz(d, n, Fraction(rng.randint(0, 5), rng.randint(1, 11)))
        op = ProductOperator(d, tuple(random_phase(rng) for _ in range(n)))
        vec = dense_state(state)
        numeric = np.vdot(vec, op.apply_dense(vec))
        assert expectation(state, op).numeric == pytest.approx(numeric, abs=1e-12)


def test_dense_state_examples():
    vec = dense_state(make_ghz(2, 2, 0))
    assert np.allclose(vec, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
    rng = random.Random(47)
    for _ in range(20):
        d = rng.randint(2, 5)
        n = rng.randint(1, 5)
        state = make_ghz(d, n, Fraction(rng.randint(0, 9), rng.randint(1, 13)))
        assert np.linalg.norm(dense_state(state)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(CapExceededError):
        dense_state(make_ghz(2, 13, 0))
    assert dense_state(make_ghz(4, 6, 0)).size == 4096  # exactly on the cap
    # d^N = 10^4800 is refused without the power, whose 4801 digits
    # Python would not convert to text for a message
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match=r"d\^N = 1000000000000\^400 entries"):
        dense_state(make_ghz(10**12, 400, 0))
    assert time.perf_counter() - start < 0.1


def test_dense_overlaps_match_inner_product():
    rng = random.Random(53)
    for _ in range(40):
        d = rng.randint(2, 6)
        n = rng.randint(1, 4)
        a = make_ghz(d, n, Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
        b = make_ghz(d, n, Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
        overlap = np.vdot(dense_state(a), dense_state(b))
        result = inner_product(a, b)
        assert result.numeric == pytest.approx(overlap, abs=1e-12)
        if result.is_zero:
            assert abs(overlap) < 1e-12


def test_subspace_closure_against_dense_oracle():
    # applying the operator to the dense vector stays supported on the
    # diagonal kets, with the phases the exact engine predicts
    rng = random.Random(59)
    for _ in range(30):
        d = rng.randint(2, 6)
        n = rng.randint(1, 4)
        state = make_ghz(d, n, Fraction(rng.randint(0, 7), rng.randint(1, 9)))
        op = ProductOperator(d, tuple(random_phase(rng) for _ in range(n)))
        image = op.apply_dense(dense_state(state))
        stride = (d**n - 1) // (d - 1)
        amp = state.amplitude_phases
        expected = np.zeros(d**n, dtype=complex)
        for k in range(d):
            kick = op.collective_angle if k < d - 1 else op.collective_angle * (1 - d)
            expected[((k + 1) % d) * stride] = (amp[k] + kick).to_complex() / math.sqrt(d)
        assert np.max(np.abs(image - expected)) < 1e-12


def test_even_d_full_turn_sign_flip():
    rng = random.Random(61)
    for d in (2, 4, 6):
        for _ in range(10):
            n = rng.randint(3, 6)
            state = make_ghz(d, n, Fraction(rng.randint(0, 5), rng.randint(1, 9)))
            cuts = sorted(rng.random() for _ in range(n - 1))
            fracs = [Fraction(x).limit_denominator(64) for x in cuts]
            angles = [fracs[0]] + [
                fracs[i + 1] - fracs[i] for i in range(n - 2)
            ] + [1 - fracs[-1]]
            assert sum(angles) == 1
            flipped = apply_rotations(state, angles)
            assert flipped.amplitude_phases == tuple(
                p + RationalPhase(1, 2) for p in state.amplitude_phases
            )


def test_odd_d_full_turn_is_identity():
    state = make_ghz(3, 3, Fraction(1, 5))
    assert apply_rotations(state, [Fraction(1, 2), Fraction(1, 2), 0]) == state


def test_signed_angles_versus_circle_points_for_even_d():
    # opposite signed rotations cancel exactly, for half-integer spin too
    s = make_ghz(4, 3, Fraction(1, 5))
    assert apply_rotations(s, [Fraction(1, 9), Fraction(-1, 9), 0]) == s
    # canonical circle points 1/9 and 8/9 instead sum to one full turn,
    # which is a genuine spinor sign flip
    wound = apply_rotations(s, [RationalPhase(1, 9), RationalPhase(8, 9), ZERO_PHASE])
    assert wound != s
    assert wound.amplitude_phases == tuple(
        p + RationalPhase(1, 2) for p in s.amplitude_phases
    )
    flipped = inner_product(s, wound)
    assert not flipped.is_zero and flipped.numeric == -1.0
    overlap = np.vdot(dense_state(s), dense_state(wound))
    assert overlap == pytest.approx(-1.0, abs=1e-12)
