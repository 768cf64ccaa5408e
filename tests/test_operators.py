"""Monomial operator algebra, checked against dense matrix numerics."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ghzcert import (
    DEFAULT_DENSE_CAP,
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
from ghzcert.operators import _DenseTables, _with_angles


def random_phase(rng, max_den=40):
    den = rng.randint(1, max_den)
    return RationalPhase(rng.randint(-3 * max_den, 3 * max_den), den)


def per_axis_image(p, vec):
    """The reference for ``apply_dense``: p applied to vec one qudit at a time.

    The vector is read as a (d,)*N tensor whose first axis is the first
    qudit, and each factor's d x d matrix acts along its own axis.
    """
    tensor = np.asarray(vec, dtype=complex).reshape((p.d,) * p.n)
    for k, angle in enumerate(p.angles):
        factor = operators.make_rotated_x(p.d, angle).to_dense()
        tensor = np.moveaxis(np.tensordot(factor, tensor, axes=([1], [k])), 0, k)
    return tensor.reshape(-1)


def matrix_of(p):
    """The d^N x d^N matrix of p, one apply_dense column at a time."""
    return np.column_stack([p.apply_dense(ket) for ket in np.eye(p.d**p.n)])


def random_vector(rng, size):
    return np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(size)])


ORACLE_SHAPES = [
    (d, n) for d in range(2, 17) for n in range(3, 13) if d**n <= DEFAULT_DENSE_CAP
]


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
    with pytest.raises(TypeError):
        make_x(3) @ 3
    with pytest.raises(ValueError, match="one phase per basis column"):
        MonomialOp(3, 0, (ZERO_PHASE,) * 2)


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
    assert np.allclose(matrix_of(single), make_rotated_x(4, RationalPhase(1, 8)).to_dense())
    with pytest.raises(ValueError):
        ProductOperator(3, ())


def test_product_operator_stores_only_rotated_factors():
    z, a, b = ZERO_PHASE, RationalPhase(1, 9), RationalPhase(2, 3)
    p = ProductOperator(3, (z, a, z, b, z))
    assert p.n == 5 and p.rotations == ((1, a), (3, b))
    assert p.angles == (z, a, z, b, z)
    assert p == _with_angles(3, 5, {3: b, 1: a, 4: z})
    assert p.collective_angle == RationalPhase(7, 9)
    plain = ProductOperator(3, (z,) * 4)
    assert plain.rotations == () and plain.collective_angle == z


def test_product_dense_swap_permutation():
    p = ProductOperator(2, (ZERO_PHASE, ZERO_PHASE))
    mat = matrix_of(p)
    expected = np.zeros((4, 4))
    # X (x) X swaps 00 <-> 11 and 01 <-> 10
    expected[3, 0] = expected[0, 3] = expected[2, 1] = expected[1, 2] = 1
    assert np.allclose(mat, expected)


def test_product_dense_unitary():
    p = ProductOperator(3, (RationalPhase(1, 9), RationalPhase(8, 9)))
    mat = matrix_of(p)
    assert np.max(np.abs(mat @ mat.conj().T - np.eye(9))) < 1e-12


def test_apply_dense_matches_matrix():
    # one small product against the Kronecker matrix of its factors, in
    # which the first factor is the most significant digit
    p = ProductOperator(3, (RationalPhase(1, 9), ZERO_PHASE, RationalPhase(-2, 5)))
    first, second, third = (make_rotated_x(3, a).to_dense() for a in p.angles)
    kron = np.kron(np.kron(first, second), third)
    assert np.max(np.abs(matrix_of(p) - kron)) < 1e-12
    rng = random.Random(23)
    for _ in range(20):
        d = rng.randint(2, 4)
        n = rng.randint(1, 4)
        p = ProductOperator(d, tuple(random_phase(rng) for _ in range(n)))
        vec = np.array(
            [rng.random() + 1j * rng.random() for _ in range(d**n)]
        )
        assert np.max(np.abs(p.apply_dense(vec) - per_axis_image(p, vec))) < 1e-12


def test_apply_dense_matches_per_axis_reference_on_every_oracle_shape():
    # every (d, N) the dense oracle certifies, with mixed-denominator angles
    # (three per operator, so angles repeat across factors as in the
    # families) and a random complex vector
    rng = random.Random(29)
    assert len(ORACLE_SHAPES) == 36
    assert (2, 12) in ORACLE_SHAPES and (16, 3) in ORACLE_SHAPES
    for d, n in ORACLE_SHAPES:
        pool = [random_phase(rng) for _ in range(3)]
        p = ProductOperator(d, tuple(rng.choice(pool) for _ in range(n)))
        vec = random_vector(rng, d**n)
        assert np.max(np.abs(p.apply_dense(vec) - per_axis_image(p, vec))) < 1e-12, (d, n)


def test_shared_tables_match_per_axis_reference_on_every_oracle_shape():
    # one table per shape over a family of three operators drawn from three
    # mixed-denominator angles, so angles repeat within and across
    # operators and each distinct one's column phases are shared
    rng = random.Random(31)
    for d, n in ORACLE_SHAPES:
        pool = [ZERO_PHASE, RationalPhase(1, n * d), random_phase(rng)]
        family = [
            ProductOperator(d, tuple(rng.choice(pool) for _ in range(n)))
            for _ in range(3)
        ]
        vec = random_vector(rng, d**n)
        tables = _DenseTables(d, n)
        for p in family:
            image = p.apply_dense(vec, tables=tables)
            assert np.max(np.abs(image - per_axis_image(p, vec))) < 1e-12, (d, n, p)


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
    vec = random_vector(rng, 64)
    tables = _DenseTables(4, 3)
    for p in family:
        image = p.apply_dense(vec, tables=tables)
        assert np.max(np.abs(image - per_axis_image(p, vec))) < 1e-12
        assert np.max(np.abs(image - p.apply_dense(vec))) < 1e-12


def test_apply_dense_rejects_tables_of_another_shape():
    vec = np.ones(27, dtype=complex)
    tables = _DenseTables(3, 3)
    for other in (ProductOperator(2, (ZERO_PHASE,) * 3), ProductOperator(3, (ZERO_PHASE,) * 4)):
        with pytest.raises(ValueError, match="share d and N"):
            other.apply_dense(vec, tables=tables)
    same = ProductOperator(3, (ZERO_PHASE,) * 3)
    assert same.apply_dense(vec, tables=tables).shape == (27,)
