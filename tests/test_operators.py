"""Monomial operator algebra, checked against dense matrix numerics."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ghzcert import (
    DEFAULT_DENSE_CAP,
    CapExceededError,
    MonomialOp,
    ProductOperator,
    RationalPhase,
    ZERO_PHASE,
    make_rotated_x,
    make_rotation,
    make_x,
    make_z,
)
from ghzcert import operators
from ghzcert.operators import apply_dense_family


def random_phase(rng, max_den=40):
    den = rng.randint(1, max_den)
    return RationalPhase(rng.randint(-3 * max_den, 3 * max_den), den)


def test_make_z_examples():
    assert np.allclose(make_z(2).to_dense(), np.diag([1, -1]))
    assert [str(p) for p in make_z(3).phases] == ["0/1", "1/3", "2/3"]
    assert make_z(3).shift == 0
    assert [str(p) for p in make_z(4).phases] == ["0/1", "1/4", "1/2", "3/4"]
    with pytest.raises(ValueError):
        make_z(1)


@pytest.mark.parametrize("d", [1, 0, -2])
@pytest.mark.parametrize(
    "build",
    [make_z, make_x, lambda d: make_rotated_x(d, Fraction(1, 7)),
     lambda d: make_rotation(d, Fraction(1, 7))],
)
def test_factories_reject_dimensions_below_two(build, d):
    with pytest.raises(ValueError, match=f"dimension must be at least 2, got {d}$"):
        build(d)


def test_make_x_examples():
    assert np.allclose(make_x(2).to_dense(), [[0, 1], [1, 0]])
    x3 = make_x(3).to_dense()
    for n in range(3):
        col = np.zeros(3)
        col[(n + 1) % 3] = 1
        assert np.allclose(x3[:, n], col)
    for d in range(2, 8):
        power = MonomialOp.identity(d)
        for _ in range(d):
            power = make_x(d) @ power
        assert power == MonomialOp.identity(d)


def test_rotated_x_examples():
    for d in range(2, 8):
        assert make_rotated_x(d, ZERO_PHASE) == make_x(d)
    assert [str(p) for p in make_rotated_x(3, RationalPhase(1, 9)).phases] == [
        "1/9",
        "1/9",
        "7/9",
    ]
    # X(1/d) is omega * X: every phase of X advanced by 1/d
    for d in range(2, 8):
        shifted = make_rotated_x(d, RationalPhase(1, d))
        assert shifted.phases == tuple(
            p + RationalPhase(1, d) for p in make_x(d).phases
        )


def test_rotation_examples():
    minus_one = make_rotation(2, 1)  # one full turn, half-integer spin
    assert np.allclose(minus_one.to_dense(), -np.eye(2))
    assert make_rotation(3, 1) == MonomialOp.identity(3)  # integer spin
    assert [str(p) for p in make_rotation(2, Fraction(1, 2)).phases] == ["3/4", "1/4"]


def test_conjugation_examples():
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randint(2, 9)
        phi = random_phase(rng)
        assert make_x(d).rotated(phi) == make_rotated_x(d, phi)
        assert make_z(d).rotated(phi) == make_z(d)
    assert make_x(5).rotated(ZERO_PHASE) == make_x(5)


def test_compose_examples():
    for d in range(2, 7):
        x = make_x(d)
        assert x @ x.adjoint() == MonomialOp.identity(d)
    zx = make_z(3) @ make_x(3)
    xz = make_x(3) @ make_z(3)
    # Weyl relation ZX = omega XZ: a global phase of one third of a turn
    assert all(
        a - b == RationalPhase(1, 3) for a, b in zip(zx.phases, xz.phases)
    )
    assert np.allclose(zx.to_dense(), RationalPhase(1, 3).to_complex() * xz.to_dense())
    y = make_rotated_x(3, RationalPhase(1, 9))
    assert (y @ y).shift == 2
    with pytest.raises(ValueError):
        make_x(2) @ make_x(3)


def test_unitarity_exact():
    rng = random.Random(11)
    for _ in range(50):
        d = rng.randint(2, 9)
        op = make_rotated_x(d, random_phase(rng)) @ make_rotation(d, random_phase(rng))
        assert op @ op.adjoint() == MonomialOp.identity(d)
        assert op.adjoint() @ op == MonomialOp.identity(d)


def test_periodicity_property():
    rng = random.Random(13)
    unit = lambda d: RationalPhase(1, d)
    for d in range(2, 13):
        for _ in range(100):
            phi = random_phase(rng)
            advanced = make_rotated_x(d, phi + unit(d))
            base = make_rotated_x(d, phi)
            assert advanced.phases == tuple(p + unit(d) for p in base.phases)


def test_covariance_closure():
    rng = random.Random(17)
    for _ in range(60):
        d = rng.randint(2, 10)
        a, b = random_phase(rng), random_phase(rng)
        assert make_rotated_x(d, a).rotated(b) == make_rotated_x(d, a + b)


def test_dense_oracle_consistency():
    rng = random.Random(19)
    for _ in range(40):
        d = rng.randint(2, 8)
        a = make_rotated_x(d, random_phase(rng))
        b = make_rotation(d, random_phase(rng)) @ make_z(d)
        assert np.max(np.abs((a @ b).to_dense() - a.to_dense() @ b.to_dense())) < 1e-12


def test_rotated_x_dense_quarter_turn():
    pauli_y = np.array([[0, -1j], [1j, 0]])
    assert np.allclose(make_rotated_x(2, RationalPhase(1, 4)).to_dense(), pauli_y)


def test_product_operator_basics():
    p = ProductOperator(3, (RationalPhase(1, 9), RationalPhase(8, 9)))
    assert p.n == 2
    assert p.collective_angle == ZERO_PHASE
    single = ProductOperator(4, (RationalPhase(1, 8),))
    assert np.allclose(single.dense(), make_rotated_x(4, RationalPhase(1, 8)).to_dense())
    with pytest.raises(ValueError):
        ProductOperator(3, ())


def test_product_dense_swap_permutation():
    p = ProductOperator(2, (ZERO_PHASE, ZERO_PHASE))
    mat = p.dense()
    expected = np.zeros((4, 4))
    # X (x) X swaps 00 <-> 11 and 01 <-> 10
    expected[3, 0] = expected[0, 3] = expected[2, 1] = expected[1, 2] = 1
    assert np.allclose(mat, expected)


def test_product_dense_unitary():
    p = ProductOperator(3, (RationalPhase(1, 9), RationalPhase(8, 9)))
    mat = p.dense()
    assert np.max(np.abs(mat @ mat.conj().T - np.eye(9))) < 1e-12


def test_apply_dense_matches_matrix():
    rng = random.Random(23)
    for _ in range(20):
        d = rng.randint(2, 4)
        n = rng.randint(1, 4)
        p = ProductOperator(d, tuple(random_phase(rng) for _ in range(n)))
        vec = np.array(
            [rng.random() + 1j * rng.random() for _ in range(d**n)]
        )
        assert np.max(np.abs(p.apply_dense(vec) - p.dense() @ vec)) < 1e-12


def test_apply_dense_matches_kron_on_every_oracle_shape():
    # every (d, N) the dense oracle certifies, against the reduce(np.kron)
    # matrix, with mixed-denominator angles (three per operator, so angles
    # repeat across factors as in the families) and a random complex vector
    rng = random.Random(29)
    shapes = [
        (d, n) for d in range(2, 17) for n in range(3, 13) if d**n <= DEFAULT_DENSE_CAP
    ]
    assert len(shapes) == 36 and (2, 12) in shapes and (16, 3) in shapes
    for d, n in shapes:
        pool = [random_phase(rng) for _ in range(3)]
        p = ProductOperator(d, tuple(rng.choice(pool) for _ in range(n)))
        vec = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d**n)])
        assert np.max(np.abs(p.apply_dense(vec) - p.dense() @ vec)) < 1e-12, (d, n)


def test_apply_dense_family_matches_kron_on_every_oracle_shape():
    # one call per shape over a family of three operators drawn from three
    # mixed-denominator angles, so angles repeat within and across
    # operators and each distinct one's factor is shared
    rng = random.Random(31)
    shapes = [
        (d, n) for d in range(2, 17) for n in range(3, 13) if d**n <= DEFAULT_DENSE_CAP
    ]
    assert len(shapes) == 36
    for d, n in shapes:
        pool = [ZERO_PHASE, RationalPhase(1, n * d), random_phase(rng)]
        family = [
            ProductOperator(d, tuple(rng.choice(pool) for _ in range(n)))
            for _ in range(3)
        ]
        vec = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d**n)])
        images = list(apply_dense_family(family, vec))
        assert len(images) == len(family)
        for p, image in zip(family, images):
            assert np.max(np.abs(image - p.dense() @ vec)) < 1e-12, (d, n, p)


def test_apply_dense_scatters_by_the_factors_own_shift(monkeypatch):
    # the scatter target is read from the factors make_rotated_x builds,
    # so a factor with another shift moves the oracle with it
    real = operators.make_rotated_x
    monkeypatch.setattr(
        operators, "make_rotated_x", lambda d, phi: MonomialOp(d, 2, real(d, phi).phases)
    )
    rng = random.Random(37)
    pool = [ZERO_PHASE, RationalPhase(1, 12), random_phase(rng)]
    family = [ProductOperator(4, tuple(rng.choice(pool) for _ in range(3))) for _ in range(3)]
    vec = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(64)])
    for p, image in zip(family, apply_dense_family(family, vec)):
        assert np.max(np.abs(image - p.dense() @ vec)) < 1e-12
        assert np.max(np.abs(image - p.apply_dense(vec))) < 1e-12


def test_apply_dense_family_rejects_mixed_shapes():
    vec = np.ones(27, dtype=complex)
    for other in (ProductOperator(2, (ZERO_PHASE,) * 3), ProductOperator(3, (ZERO_PHASE,) * 4)):
        family = [ProductOperator(3, (ZERO_PHASE,) * 3), other]
        with pytest.raises(ValueError, match="share d and N"):
            list(apply_dense_family(family, vec))
    assert list(apply_dense_family([], vec)) == []


def test_dense_cap():
    p = ProductOperator(2, (ZERO_PHASE,) * 13)  # 8192 > 4096
    with pytest.raises(CapExceededError):
        p.dense()
    assert ProductOperator(2, (ZERO_PHASE,) * 3).dense().shape == (8, 8)
