"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the exact checks carry none.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from ghzcert import (
    Construction,
    NoContradiction,
    ProductOperator,
    RationalPhase,
    ZERO_PHASE,
    apply_rotations,
    brute_force_solve,
    classify,
    classify_plane,
    dense_state,
    eigenvalue_exponent,
    expectation,
    inner_product,
    make_ghz,
    make_rotated_x,
    make_x,
    method1,
    method2,
    method2_operator_set,
    method3,
    satisfiable,
    solve,
    system_from_operators,
    verify_construction,
    witness_construction,
)
from ghzcert.constructions import _qudit_exponents
from operator_families import from_items

TOL = 1e-12


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def plane_cells():
    return classify_plane(12, 20)


def random_phase(rng, max_den=40):
    return RationalPhase(rng.randint(-120, 120), rng.randint(1, max_den))


def test_c01_regime_map_reproduction(capsys):
    from ghzcert.cli import main

    start = time.perf_counter()
    code = main(
        ["classify", "--d-max", "12", "--n-max", "20", "--format", "csv", "--verify"]
    )
    elapsed = time.perf_counter() - start
    rows = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert elapsed < 60.0
    assert len(rows) == 198
    for spot in ("2,3,1,1", "3,6,2,2", "5,3,3,3", "5,4,3,3"):
        assert spot in rows
    # the d = 12 column is covered through its factors 2, 3 and 4
    d12 = [classify(12, n) for n in range(3, 21)]
    assert all(c.regime in (1, 2) for c in d12)
    assert {c.witness_f for c in d12 if c.regime == 1} <= {2, 3, 4}
    report(1, f"198 cells classified and certified in {elapsed:.1f}s; spot rows match")


def test_c02_orthogonality():
    for d in range(2, 13):
        states = [make_ghz(d, 3, Fraction(nu, d)) for nu in range(d)]
        vectors = [dense_state(s) for s in states]
        for i in range(d):
            for j in range(d):
                result = inner_product(states[i], states[j])
                overlap = np.vdot(vectors[i], vectors[j])
                if i == j:
                    assert not result.is_zero and result.numeric == 1.0
                else:
                    assert result.is_zero and result.numeric == 0
                assert abs(result.numeric - overlap) <= TOL
    half = inner_product(make_ghz(3, 2, 0), make_ghz(3, 2, Fraction(1, 2)))
    assert abs(half.numeric - (-1 / 3)) <= TOL
    report(2, "orthonormal circle families exact for d <= 12; value -1/3 at half turn")


def test_c03_periodicity_and_covariance():
    rng = random.Random(101)
    for d in range(2, 13):
        unit = RationalPhase(1, d)
        for _ in range(100):
            phi = random_phase(rng)
            advanced = make_rotated_x(d, phi + unit)
            assert advanced.phases == tuple(
                p + unit for p in make_rotated_x(d, phi).phases
            )
            assert make_rotated_x(d, ZERO_PHASE) == make_x(d)
    for _ in range(200):
        d = rng.randint(2, 12)
        n = rng.randint(1, 8)
        nu = rng.randrange(d)
        angles = [random_phase(rng) for _ in range(n - 1)]
        angles.append(RationalPhase(nu, d) - sum(angles, ZERO_PHASE))
        op = ProductOperator(d, tuple(angles))
        assert eigenvalue_exponent(make_ghz(d, n, 0), op) == RationalPhase(nu, d)
    report(3, "1200 periodicity identities and 200 covariant eigenphases exact")


def test_c04_dense_oracle_equivalence():
    dense_checked = brute_checked = 0
    saw_qutrit_block_case = False
    for cell in plane_cells():
        construction = witness_construction(cell)
        d, n = construction.d, construction.n
        if d**n <= 4096:
            state = make_ghz(d, n, 0)
            vec = dense_state(state)
            for op, _ in construction.all_items():
                lam = eigenvalue_exponent(state, op)
                assert lam is not None
                error = np.max(np.abs(op.apply_dense(vec) - lam.to_complex() * vec))
                assert error <= TOL
            dense_checked += 1
        system = system_from_operators(d, construction.all_items())
        if d ** len(system.variables) <= 10**6:
            fast = solve(system)
            slow = brute_force_solve(system)
            assert fast.status == slow.status == "UNSAT"
            brute_checked += 1
            if (d, n, cell.regime) == (3, 4, 1):
                saw_qutrit_block_case = True  # the 3^8 = 6561 enumeration
    assert saw_qutrit_block_case
    assert dense_checked >= 30 and brute_checked >= 10
    report(
        4,
        f"dense tensors confirm {dense_checked} constructions; exhaustive "
        f"enumeration confirms {brute_checked} verdicts (incl. the 3^8 case)",
    )


def test_c05_method2_criterion():
    for d in range(2, 13):
        for n in range(3, 21):
            supporting, target = method2_operator_set(d, n)
            solvable = satisfiable(system_from_operators(d, supporting + [target]))
            assert solvable == (math.gcd(n, d) == 1)
            result = method2(d, n)
            if math.gcd(n, d) > 1:
                assert isinstance(result, Construction)
            else:
                assert isinstance(result, NoContradiction)
    report(5, "conjugate-pair systems unsolvable exactly when gcd(N, d) > 1")


def test_c06_method3_operator_counts():
    assert method3(5, 3).operator_count() == 8
    assert method3(7, 3).operator_count() == 10
    assert method3(7, 6).operator_count() == 10  # N + 4
    report(6, "ladder constructions use 8, 10 and N+4 operators as quoted")


def test_c07_basis_count_bookkeeping():
    for cell in plane_cells():
        construction = witness_construction(cell)
        rows = construction._encoding.rows
        counts = sorted(len(used) for used in _qudit_exponents(construction.n, rows))
        if construction.method == 1:
            assert counts == [2] * construction.n
        elif construction.method == 2:
            assert counts == [2] * (construction.n - 2) + [3, 3]
    report(7, "2 bases per qudit (method 1); 3 on exactly two qudits (method 2)")


def test_c08_expectation_n_independence():
    rng = random.Random(103)
    for _ in range(20):
        d = rng.randint(2, 7)
        phi = random_phase(rng)
        angles5 = [random_phase(rng) for _ in range(4)]
        angles5.append(phi - sum(angles5, ZERO_PHASE))
        five = expectation(make_ghz(d, 5, 0), ProductOperator(d, tuple(angles5)))
        one = expectation(make_ghz(d, 1, 0), ProductOperator(d, (phi,)))
        assert five.phases == one.phases
        assert abs(five.numeric - one.numeric) <= TOL
    report(8, "N = 5 expectation values equal the one-body values (exact phase lists)")


def test_c09_even_d_full_turn_sign_flip():
    rng = random.Random(107)
    for d in (2, 4, 6):
        for _ in range(10):
            n = rng.randint(3, 6)
            state = make_ghz(d, n, Fraction(rng.randint(0, 4), rng.randint(1, 7)))
            parts = sorted(Fraction(rng.randint(1, 63), 64) for _ in range(n - 1))
            angles = (
                [parts[0]]
                + [parts[i + 1] - parts[i] for i in range(n - 2)]
                + [1 - parts[-1]]
            )
            assert sum(angles) == 1
            flipped = apply_rotations(state, angles)
            assert flipped.amplitude_phases == tuple(
                p + RationalPhase(1, 2) for p in state.amplitude_phases
            )
    report(9, "2*pi net rotations negate all amplitudes exactly for d in {2, 4, 6}")


def test_c10_negative_controls():
    base = method1(3, 4, 3)
    op, exponent = base.target
    corrupted = from_items(
        base.d,
        base.n,
        base.method,
        base.phi_o,
        [*base.operators, (op, exponent + RationalPhase(1, 3))],
        f=base.f,
    )
    cert = verify_construction(corrupted)
    assert not cert.quantum_ok and not cert.certified
    assert isinstance(method1(3, 6, 3), NoContradiction)
    assert isinstance(method2(5, 3), NoContradiction)
    report(10, "corrupted eigenphase detected; declined cells report no contradiction")
