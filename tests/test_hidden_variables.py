"""Congruence systems over Z_d: solver, oracle agreement, forced relations."""

import copy
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzcert import (
    CapExceededError,
    Constraint,
    FactorLabel,
    HVSystem,
    HVVerdict,
    ProductOperator,
    RationalPhase,
    ZERO_PHASE,
    brute_force_solve,
    classify,
    forced_value,
    invariance_demo,
    method1_operator_set,
    method2_operator_set,
    satisfiable,
    solve,
    system_from_operators,
    witness_construction,
)
from ghzcert import hidden_variables
from ghzcert.hidden_variables import DEFAULT_BRUTE_CAP
from ghzcert.phases import as_turns
from operator_families import encode


def raw_system(d, rows, rhs):
    """Build a system straight from integer rows (variables x1..xn)."""
    nvars = len(rows[0]) if rows else 0
    labels = tuple(FactorLabel(i + 1, ZERO_PHASE) for i in range(nvars))
    constraints = tuple(
        Constraint(tuple((j, c) for j, c in enumerate(row) if c), r)
        for row, r in zip(rows, rhs)
    )
    return HVSystem(d, labels, constraints)


def random_sat_system(rng, d, nvars, nrows):
    """A random system with a planted solution."""
    rows = [[rng.randrange(d) for _ in range(nvars)] for _ in range(nrows)]
    planted = [rng.randrange(d) for _ in range(nvars)]
    rhs = [sum(c * x for c, x in zip(row, planted)) % d for row in rows]
    return raw_system(d, rows, rhs)


def method1_system(d, n, f):
    supporting, target = method1_operator_set(d, n, f)
    return system_from_operators(d, supporting + [target])


def test_system_from_single_operator():
    op = ProductOperator(3, (ZERO_PHASE,) * 3)
    system = system_from_operators(3, [(op, ZERO_PHASE)])
    assert len(system.variables) == 3
    assert len(system.constraints) == 1
    con = system.constraints[0]
    assert con.rhs == 0
    assert sorted(con.coeffs) == [(0, 1), (1, 1), (2, 1)]
    assert solve(system).status == "SAT"


def test_system_from_method1_shape():
    system = method1_system(3, 4, 3)
    assert len(system.constraints) == 5
    assert len(system.variables) == 8  # 4 qudits x angles {0, 1/9}


def test_empty_system_is_sat():
    system = system_from_operators(3, [])
    assert len(system.variables) == 0
    verdict = solve(system)
    assert verdict.status == "SAT" and verdict.witness == ()


def test_system_rejects_bad_inputs():
    op = ProductOperator(3, (ZERO_PHASE,) * 3)
    with pytest.raises(ValueError):
        system_from_operators(3, [(op, RationalPhase(1, 9))])  # not a cube root
    other = ProductOperator(3, (ZERO_PHASE,) * 2)
    with pytest.raises(ValueError):
        system_from_operators(3, [(op, ZERO_PHASE), (other, ZERO_PHASE)])
    with pytest.raises(ValueError):
        system_from_operators(4, [(op, ZERO_PHASE)])


def test_system_built_in_python_is_validated():
    # the same checks as the JSON reader: a repeated label would give one
    # observable two values, and a bad index or d < 2 is no system at all
    label = FactorLabel(1, ZERO_PHASE)
    twice = Constraint(((0, 1), (1, 2)), 1)
    with pytest.raises(ValueError, match="listed twice"):
        HVSystem(3, (label, label), (twice,))
    with pytest.raises(ValueError, match="out of range"):
        HVSystem(3, (label,), (twice,))
    with pytest.raises(ValueError, match="out of range"):
        HVSystem(3, (label,), (Constraint(((-1, 1),), 0),))
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        HVSystem(1, (), ())
    for qudit in (0, -1):
        with pytest.raises(ValueError, match="qudit positions start at 1"):
            FactorLabel(qudit, ZERO_PHASE)


def test_solve_trivial_sat():
    system = raw_system(3, [[1]], [1])
    verdict = solve(system)
    assert verdict.status == "SAT" and verdict.witness == (1,)


def test_method1_solvability_matches_divisibility():
    # N = 4 not a multiple of f = 3: no assignment exists
    assert solve(method1_system(3, 4, 3)).status == "UNSAT"
    # N = 6 is a multiple of 3: solvable
    assert solve(method1_system(3, 6, 3)).status == "SAT"


def test_brute_force_is_the_designated_oracle():
    # 3^8 = 6561 assignments, exhaustively refuted
    verdict = brute_force_solve(method1_system(3, 4, 3))
    assert verdict.status == "UNSAT"
    # the qubit case: 2^6 assignments
    verdict = brute_force_solve(method1_system(2, 3, 2))
    assert verdict.status == "UNSAT"


def test_brute_force_cap(monkeypatch):
    monkeypatch.setattr(hidden_variables, "DEFAULT_BRUTE_CAP", 100)
    with pytest.raises(CapExceededError):
        brute_force_solve(method1_system(3, 4, 3))  # 3^8 assignments
    # 6^6000 has 4669 digits, too many for Python to write in a message:
    # the cap is decided, and the message written, without the power
    labels = tuple(FactorLabel(q, ZERO_PHASE) for q in range(1, 6001))
    with pytest.raises(CapExceededError, match=r"d\^n = 6\^6000 assignments"):
        brute_force_solve(HVSystem(6, labels, ()))


def test_solver_agrees_with_brute_force_on_random_systems():
    rng = random.Random(67)
    for _ in range(200):
        d = rng.randint(2, 12)
        nvars = min(rng.randint(1, 6), 5 if d > 10 else 6)  # d**nvars <= 10**6
        nrows = rng.randint(1, 4)
        if rng.random() < 0.5:
            system = random_sat_system(rng, d, nvars, nrows)
        else:
            rows = [[rng.randrange(d) for _ in range(nvars)] for _ in range(nrows)]
            rhs = [rng.randrange(d) for _ in range(nrows)]
            system = raw_system(d, rows, rhs)
        fast = solve(system)
        slow = brute_force_solve(system)
        assert fast.status == slow.status
        if fast.status == "SAT":
            assert fast.witness == slow.witness  # both lexicographically least


def smith_solvable(d, rows, rhs):
    """Third oracle: A x = b (mod d) is solvable iff the integer matrices
    [A | dI] and [A | dI | b] have equal products of invariant factors
    (both have full row rank, and the product is the gcd of the maximal
    minors)."""
    # imported here so that only this oracle needs sympy
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    def invariant_product(matrix):
        snf = smith_normal_form(matrix, domain=ZZ)
        return math.prod(abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i])

    m = len(rows)
    base = Matrix(
        [list(row) + [d * (i == j) for j in range(m)] for i, row in enumerate(rows)]
    )
    return invariant_product(base) == invariant_product(base.row_join(Matrix(rhs)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_satisfiable_agrees_with_smith_form_above_brute_force_cap(data):
    # systems with d**nvars above the brute-force cap, coefficients rich in
    # zero divisors of Z_d, half of them with a planted solution
    d = data.draw(st.sampled_from([12, 30, 36, 60, 64, 97]))
    least = next(k for k in itertools.count(1) if d**k > DEFAULT_BRUTE_CAP)
    nvars = data.draw(st.integers(least, 12))
    nrows = data.draw(st.integers(1, 10))
    divisors = [d // f for f in (2, 3, 4) if d % f == 0] or [1]
    entry = st.one_of(st.just(0), st.sampled_from(divisors), st.integers(-d, 2 * d))
    row = st.lists(entry, min_size=nvars, max_size=nvars)
    rows = data.draw(st.lists(row, min_size=nrows, max_size=nrows))
    planted = data.draw(st.booleans())
    if planted:
        x = data.draw(st.lists(st.integers(0, d - 1), min_size=nvars, max_size=nvars))
        rhs = [sum(c * v for c, v in zip(r, x)) % d for r in rows]
    else:
        rhs = data.draw(st.lists(st.integers(0, d - 1), min_size=nrows, max_size=nrows))
    system = raw_system(d, rows, rhs)
    assert satisfiable(system) == smith_solvable(d, rows, rhs)
    if planted:
        assert satisfiable(system)
    verdict = solve(system)
    if verdict.status == "SAT":
        assert all(
            sum(c * v for c, v in zip(r, verdict.witness)) % d == b
            for r, b in zip(rows, rhs)
        )


def test_forced_value_matches_exhaustive_enumeration():
    # forced exactly when every solution gives the functional the same value
    rng = random.Random(79)
    for _ in range(150):
        d = rng.choice([4, 6, 8, 9, 10, 12])
        nvars = rng.randint(1, 4)
        system = random_sat_system(rng, d, nvars, rng.randint(1, 3))
        rows, rhs = system.dense_rows()
        solutions = [
            x
            for x in itertools.product(range(d), repeat=nvars)
            if all(
                sum(c * v for c, v in zip(row, x)) % d == r
                for row, r in zip(rows, rhs)
            )
        ]
        for _ in range(4):
            coeffs = [rng.randrange(d) for _ in range(nvars)]
            if rng.random() < 0.5:  # a combination of rows is always forced
                k = rng.randrange(len(rows))
                coeffs = [(c * rng.randrange(1, d)) % d for c in rows[k]]
            values = {sum(c * v for c, v in zip(coeffs, x)) % d for x in solutions}
            expected = values.pop() if len(values) == 1 else None
            functional = dict(zip(system.variables, coeffs))
            assert forced_value(system, functional) == expected


def test_howell_basis_entries_stay_in_range():
    rng = random.Random(83)
    systems = [
        raw_system(
            d,
            [[rng.randrange(-3 * d, 3 * d) for _ in range(7)] for _ in range(6)],
            [rng.randrange(d) for _ in range(6)],
        )
        for d in (4, 12, 30, 36, 60, 64)
    ]
    for d, n in [(12, 20), (30, 50), (24, 7)]:
        cell = witness_construction(classify(d, n))
        systems.append(system_from_operators(d, cell.all_items()))
    for system in systems:
        d = system.d
        basis = system._howell
        assert len(basis) == len(system.variables) + 1
        for c, row in enumerate(basis):
            if row is not None:
                # entry c leads on variable c; the last entry, basis[-1],
                # leads on the rhs column -1
                lead = c if c < len(system.variables) else -1
                assert all(0 < v < d for v in row.values())
                assert max(row) == lead
                assert d % row[lead] == 0


def test_howell_basis_leaves_the_callers_rows_unchanged():
    # non-unit pivots, a gcd combination, and one row object passed twice
    shared = {2: 4, 1: 6, -1: 3}
    rows = [{2: 6, 0: 3}, shared, {2: 9, 1: 1, 0: 2, -1: 5}, shared, {1: 8, -1: 4}]
    before = copy.deepcopy(rows)
    basis = hidden_variables._howell_basis(12, 3, rows)
    assert rows == before
    assert not any(row is b for row in rows for b in basis)
    assert [row[c] for c, row in zip((0, 1, 2, -1), basis)] == [1, 2, 1, 6]


def test_howell_kernel_paths_agree_with_enumeration(monkeypatch):
    # Composite d and coefficients rich in zero divisors give non-unit
    # pivots and the gcd combination (_row_sum).  A row built from an
    # earlier one plus a low-column tail shares its leading entries, so
    # one reduction can drop its leading column by several steps, and the
    # kernel must move it from bucket c-1 to its real bucket.
    rng = random.Random(89)
    reached: Counter[str] = Counter()
    building = False
    row_sum, subtract = hidden_variables._row_sum, hidden_variables._subtract

    def counted_row_sum(*args):
        reached["gcd"] += building
        return row_sum(*args)

    def counted_subtract(d, r, q, p):
        subtract(d, r, q, p)
        reached["drop"] += building and bool(r) and max(r) < max(p) - 1

    monkeypatch.setattr(hidden_variables, "_row_sum", counted_row_sum)
    monkeypatch.setattr(hidden_variables, "_subtract", counted_subtract)
    for _ in range(300):
        d = rng.choice([4, 6, 8, 9, 10, 12])
        nvars = rng.randint(2, 5)
        divisors = [f for f in range(2, d) if d % f == 0]
        rows: list[list[int]] = []
        for _ in range(rng.randint(1, 6)):
            if rows and rng.random() < 0.5:
                q = rng.randrange(1, d)
                row = [q * c % d for c in rng.choice(rows)]
                for j in range(rng.randint(1, 2)):
                    row[j] = rng.randrange(d)
            else:
                row = [rng.choice([0, rng.randrange(d), *divisors]) for _ in range(nvars)]
            rows.append(row)
        planted = [rng.randrange(d) for _ in range(nvars)]
        if rng.random() < 0.5:
            rhs = [sum(c * x for c, x in zip(row, planted)) % d for row in rows]
        else:
            rhs = [rng.randrange(d) for _ in rows]
        system = raw_system(d, rows, rhs)
        building = True
        basis = system._howell
        building = False
        leads = [*range(nvars), -1]
        reached["non-unit"] += any(row and row[c] != 1 for c, row in zip(leads, basis))

        fast, slow = solve(system), brute_force_solve(system)
        assert fast == slow
        if fast.status == "UNSAT":
            continue
        grid = np.indices((d,) * nvars).reshape(nvars, -1).T
        matrix = np.array(rows).reshape(len(rows), nvars)
        solutions = grid[(grid @ matrix.T % d == np.array(rhs)).all(axis=1)]
        for _ in range(3):
            coeffs = [rng.choice([0, rng.randrange(d), *divisors]) for _ in range(nvars)]
            values = set((solutions @ np.array(coeffs) % d).tolist())
            expected = values.pop() if len(values) == 1 else None
            assert forced_value(system, dict(zip(system.variables, coeffs))) == expected
    assert min(reached["gcd"], reached["drop"], reached["non-unit"]) > 0, reached


def test_brute_force_vectorized_path_matches_scalar_path():
    # 65536 assignments, met as two grids of 256 points: the least witness
    # has the zero prefix and sets only the last variable of the suffix
    system = raw_system(2, [[1] * 16], [1])  # 65536 assignments
    fast = brute_force_solve(system)
    assert fast.status == "SAT"
    assert fast.witness == (0,) * 15 + (1,)


def test_brute_force_matches_itertools_enumeration():
    # reference: the first assignment of itertools.product (lexicographic)
    rng = random.Random(97)
    for trial in range(250):
        d = rng.randint(2, 7)
        nvars = 0 if trial < 5 else rng.randint(1, 5)
        nrows = rng.randint(1, 4)
        rows = [[rng.randrange(-d, 2 * d) for _ in range(nvars)] for _ in range(nrows)]
        rhs = [rng.randrange(d) for _ in range(nrows)]
        system = raw_system(d, rows, rhs)
        if trial % 3 == 0 and nvars:  # 2*x1 = 1 (mod 2k) has no solution
            d += d % 2
            system = raw_system(d, rows + [[2] + [0] * (nvars - 1)], rhs + [1])
        dense, dense_rhs = system.dense_rows()
        expected = next(
            (
                x
                for x in itertools.product(range(d), repeat=nvars)
                if all(
                    sum(c * v for c, v in zip(row, x)) % d == r
                    for row, r in zip(dense, dense_rhs)
                )
            ),
            None,
        )
        verdict = brute_force_solve(system)
        assert verdict.status == ("UNSAT" if expected is None else "SAT")
        assert verdict.witness == expected
    # zero variables: SAT with the empty witness iff every rhs is 0 mod d
    empty = HVSystem(5, (), (Constraint((), 0), Constraint((), 10)))
    assert brute_force_solve(empty) == HVVerdict("SAT", ())
    assert brute_force_solve(HVSystem(5, (), (Constraint((), 3),))).status == "UNSAT"


def least_by_itertools(system):
    """The first assignment of itertools.product that meets every row."""
    rows, rhs = system.dense_rows()
    d = system.d
    return next(
        (
            x
            for x in itertools.product(range(d), repeat=len(system.variables))
            if all(
                sum(c * v for c, v in zip(row, x)) % d == r
                for row, r in zip(rows, rhs)
            )
        ),
        None,
    )


def test_brute_force_at_exactly_the_cap():
    # 10^6 assignments: the split is 10^3 + 10^3 points at (10, 6) and
    # (1000, 2), and 1 + 10^6 at (10^6, 1); the Howell solver, which shares
    # no code with the enumeration, gives the same least witness
    rng = random.Random(101)
    for d, n in [(10, 6), (1000, 2), (10**6, 1)]:
        assert d**n == DEFAULT_BRUTE_CAP
        systems = [random_sat_system(rng, d, n, rng.randint(1, 4)) for _ in range(3)]
        # 2*x_1 + d/2*x_n = 1 (mod d) has no solution for even d
        unsat = [2] + [0] * (n - 2) + [d // 2] if n > 1 else [2]
        systems.append(raw_system(d, [unsat], [1]))
        # 3*x_n = 6 (mod d): the least witness is 0 but for x_n = 2
        systems.append(raw_system(d, [[0] * (n - 1) + [3]], [6]))
        for system in systems:
            verdict = brute_force_solve(system)
            assert verdict == solve(system), (d, n)
        assert verdict.witness == (0,) * (n - 1) + (2,)
        too_many = HVSystem(d, system.variables + (FactorLabel(n + 1, ZERO_PHASE),), ())
        with pytest.raises(CapExceededError):
            brute_force_solve(too_many)


def test_brute_force_split_boundaries():
    # odd n (prefix shorter than suffix), variables no row names on either
    # side of the split, and least witnesses that are zero on exactly one
    # side of it, each against itertools.product
    cases = [
        # n = 5, split 2 + 3: x_2 + 2*x_5 = 1 and x_4 = 2 (mod 3)
        raw_system(3, [[0, 1, 0, 0, 2], [0, 0, 0, 1, 0]], [1, 2]),
        # n = 7, split 3 + 4, rows over x_1, x_4 and x_7 only
        raw_system(2, [[1, 0, 0, 1, 0, 0, 1], [0, 0, 0, 1, 0, 0, 1]], [1, 1]),
        # zero prefix, nonzero suffix: x_3 + x_4 = 1 (mod 3)
        raw_system(3, [[0, 0, 1, 1]], [1]),
        # nonzero prefix, zero suffix: x_1 = 1 (mod 3), x_3 and x_4 free
        raw_system(3, [[1, 0, 0, 0]], [1]),
        # the first prefix with a match is (1, 0), and its least suffix is
        # (2, 3): x_1 + x_3 = 3, 2*x_1 = 2 and x_1 + x_4 = 0 (mod 4)
        raw_system(4, [[1, 0, 1, 0], [2, 0, 0, 0], [1, 0, 0, 1]], [3, 2, 0]),
        # n = 3 with only the middle variable named: split 1 + 2
        raw_system(5, [[0, 2, 0]], [3]),
        # unsatisfiable across the split: x_1 + x_4 = 1 and x_1 + x_4 = 2
        raw_system(3, [[1, 0, 0, 1], [1, 0, 0, 1]], [1, 2]),
    ]
    expected = [
        (0, 0, 0, 2, 2),
        (0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
        (1, 0, 2, 3),
        (0, 4, 0),
        None,
    ]
    for system, least in zip(cases, expected):
        assert least_by_itertools(system) == least
        verdict = brute_force_solve(system)
        assert verdict == HVVerdict("UNSAT" if least is None else "SAT", least)


def test_brute_force_joins_rows_in_blocks():
    # more rows than one block holds at every d: each block's residues
    # extend the key of every grid point, and a row of any block can
    # decide the verdict or move the least witness
    rng = random.Random(103)
    for d in (2, 3, 10, 97):
        n = 4 if d < 97 else 2
        rows = [[rng.randrange(d) for _ in range(n)] for _ in range(45)]
        planted = [rng.randrange(d) for _ in range(n)]
        rhs = [sum(c * x for c, x in zip(row, planted)) % d for row in rows]
        system = raw_system(d, rows, rhs)
        assert brute_force_solve(system) == HVVerdict("SAT", least_by_itertools(system))
        for k in (0, 21, 44):  # a bad row in the first, a middle and the last block
            bad = rhs[:k] + [(rhs[k] + 1) % d] + rhs[k + 1 :]
            system = raw_system(d, rows, bad)
            verdict = brute_force_solve(system)
            assert verdict == solve(system) and verdict.witness == least_by_itertools(system)


def test_system_from_operators_matches_reference_builder():
    # reference: one FactorLabel per factor, interned in a dict, row by row
    def reference(d, items):
        variables = {}
        constraints = []
        for op, exponent in items:
            coeffs = tuple(
                (variables.setdefault(FactorLabel(k, a), len(variables)), 1)
                for k, a in enumerate(op.angles, start=1)
            )
            scaled = exponent.as_fraction() * d
            constraints.append(Constraint(coeffs, int(scaled) % d))
        return HVSystem(d, tuple(variables), tuple(constraints))

    for d in range(2, 13):
        for n in range(3, 15):
            items = witness_construction(classify(d, n)).all_items()
            assert system_from_operators(d, items) == reference(d, items)


def test_witness_satisfies_every_constraint():
    rng = random.Random(71)
    for _ in range(100):
        d = rng.randint(2, 9)
        nvars = rng.randint(1, 6)
        nrows = rng.randint(1, 5)
        rows = [[rng.randrange(-d, d) for _ in range(nvars)] for _ in range(nrows)]
        rhs = [rng.randrange(d) for _ in range(nrows)]
        system = raw_system(d, rows, rhs)
        verdict = solve(system)
        assert (verdict.status == "SAT") == satisfiable(system)
        if verdict.status == "SAT":
            for row, r in zip(rows, rhs):
                assert sum(c * w for c, w in zip(row, verdict.witness)) % d == r % d


def test_solver_agrees_with_brute_force_on_unreduced_coefficients():
    # rows as a JSON file may write them: an index listed more than once,
    # negative coefficients, coefficients and right-hand sides that are
    # 0 mod d or above d
    rng = random.Random(79)
    shapes = Counter()
    for _ in range(300):
        d = rng.randint(2, 9)
        nvars = rng.randint(1, 5)
        constraints = []
        for _ in range(rng.randint(1, 4)):
            coeffs = tuple(
                (rng.randrange(nvars), rng.choice([rng.randrange(-2 * d, 2 * d), -d, d, 2 * d]))
                for _ in range(rng.randint(1, 6))
            )
            constraints.append(Constraint(coeffs, rng.randrange(-2 * d, 2 * d)))
            indices = [idx for idx, _ in coeffs]
            shapes["repeated"] += len(set(indices)) < len(indices)
            shapes["negative"] += any(c < 0 for _, c in coeffs)
            shapes["zero mod d"] += any(c % d == 0 for _, c in coeffs)
        labels = tuple(FactorLabel(i + 1, ZERO_PHASE) for i in range(nvars))
        system = HVSystem(d, labels, tuple(constraints))
        fast, slow = solve(system), brute_force_solve(system)
        assert fast == slow
        shapes[fast.status] += 1
    assert min(shapes.values()) > 20, shapes


def test_adding_constraints_never_rescues_unsat():
    rng = random.Random(73)
    for _ in range(120):
        d = rng.randint(2, 6)
        nvars = rng.randint(1, 4)
        rows = [[rng.randrange(d) for _ in range(nvars)] for _ in range(3)]
        rhs = [rng.randrange(d) for _ in range(3)]
        statuses = [
            solve(raw_system(d, rows[: k + 1], rhs[: k + 1])).status
            for k in range(3)
        ]
        for earlier, later in zip(statuses, statuses[1:]):
            if earlier == "UNSAT":
                assert later == "UNSAT"


def test_solver_is_deterministic():
    system = method1_system(3, 6, 3)
    assert solve(system) == solve(system)


def test_method1_rows_sum_to_the_aggregate_relation():
    # summing the N block constraints gives (N-f)*sum(X) + f*sum(Y) = N
    d, n, f = 3, 4, 3
    supporting, target = method1_operator_set(d, n, f)
    system = system_from_operators(d, supporting + [target])
    totals: dict[FactorLabel, int] = {}
    rhs_total = 0
    for con in system.constraints[1:]:  # skip the plain all-shift row
        rhs_total += con.rhs
        for idx, coeff in con.coeffs:
            label = system.variables[idx]
            totals[label] = totals.get(label, 0) + coeff
    phi_o = RationalPhase(1, f * d)
    for k in range(1, n + 1):
        assert totals[FactorLabel(k, ZERO_PHASE)] == n - f
        assert totals[FactorLabel(k, phi_o)] == f
    assert rhs_total % d == n % d


def method2_base_system(d, n):
    supporting, _ = method2_operator_set(d, n)
    return system_from_operators(d, supporting)


def test_method2_base_set_forces_uniform_variation():
    d, n = 3, 3
    system = method2_base_system(d, n)
    phi_o = RationalPhase(1, n * d)
    for k in range(2, n + 1):
        delta_k = {
            FactorLabel(k, phi_o): 1,
            FactorLabel(k, ZERO_PHASE): -1,
            FactorLabel(1, phi_o): -1,
            FactorLabel(1, ZERO_PHASE): 1,
        }
        assert forced_value(system, delta_k) == 0


def test_method2_partial_set_leaves_last_variation_free():
    d, n = 3, 4
    phi_o = RationalPhase(1, n * d)
    y, yt = phi_o, -phi_o

    def op(placed):
        angles = [ZERO_PHASE] * n
        for pos, a in placed.items():
            angles[pos] = a
        return ProductOperator(d, tuple(angles))

    items = [(op({}), ZERO_PHASE)]
    for k in range(n - 1):
        items.append((op({k: y, n - 1: yt}), ZERO_PHASE))
    system = system_from_operators(d, items)

    def delta(k):
        return {FactorLabel(k, y): 1, FactorLabel(k, ZERO_PHASE): -1}

    def delta_tilde(k):
        return {FactorLabel(k, yt): 1, FactorLabel(k, ZERO_PHASE): -1}

    def combine(f1, f2, scale2=-1):
        out = dict(f1)
        for label, coeff in f2.items():
            out[label] = out.get(label, 0) + scale2 * coeff
        return out

    # delta_1 = ... = delta_{N-1} = -tilde_delta_N is forced
    for k in range(2, n):
        assert forced_value(system, combine(delta(k), delta(1))) == 0
    assert forced_value(system, combine(delta(1), delta_tilde(n), scale2=1)) == 0
    # but delta_N involves a variable the system never constrains
    assert forced_value(system, delta(n)) is None


def test_difference_forcing_depends_on_modulus():
    # x1 + x2 = 0 forces x1 - x2 = 2*x1 only where 2 = 0, i.e. mod 2
    u, v = FactorLabel(1, ZERO_PHASE), FactorLabel(2, ZERO_PHASE)
    for d, expected in [(3, None), (2, 0)]:
        system = raw_system(d, [[1, 1]], [0])
        assert forced_value(system, {u: 1, v: -1}) == expected


def test_forced_value_requires_sat():
    system = raw_system(2, [[2]], [1])
    with pytest.raises(ValueError):
        forced_value(system, {FactorLabel(1, ZERO_PHASE): 1})


def test_forced_value_with_unknown_label():
    system = raw_system(3, [[1]], [2])
    stranger = FactorLabel(9, RationalPhase(1, 7))
    assert forced_value(system, {stranger: 1}) is None
    assert forced_value(system, {stranger: 3}) == 0  # coefficient vanishes mod 3
    assert forced_value(system, {}) == 0


def test_invariance_demo_antisymmetry():
    report = invariance_demo(3, 3, RationalPhase(1, 12))
    assert report.all_forced
    assert all(r.forced == 0 for r in report.relations)
    assert [r.description for r in report.relations] == [
        "dX_1(1/12) + dX_2(11/12)",
        "dX_1(1/12) + dX_3(11/12)",
        "dX_2(1/12) + dX_1(11/12)",
        "dX_2(1/12) + dX_3(11/12)",
        "dX_3(1/12) + dX_1(11/12)",
        "dX_3(1/12) + dX_2(11/12)",
        "dX_2(1/12) - dX_1(1/12)",
        "dX_3(1/12) - dX_1(1/12)",
        "dX_1(1/12) + dX_1(11/12)",
    ]


def test_invariance_demo_scaling_relation():
    report = invariance_demo(2, 3, RationalPhase(1, 8), partition=(1, 2))
    assert report.all_forced
    assert len(report.relations) == 10
    scaling = [r for r in report.relations if "1*dX_1(1/8) - 2*dX_1(1/16)" in r.description]
    assert len(scaling) == 1 and scaling[0].forced == 0
    assert report.relations[-1] is scaling[0]


def test_invariance_demo_zero_angle_is_trivial():
    report = invariance_demo(4, 3, ZERO_PHASE)
    assert report.all_forced


def test_invariance_demo_is_refused_above_the_json_limit(monkeypatch):
    # 1 + N(N-1) operators of N labels each, twice as many with a partition;
    # an over-limit demo is refused before its pair rows, the first of its
    # family that it builds
    def build(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(hidden_variables, "_pair_rows", build)
    for n, partition in [(162, None), (129, (64, 65))]:
        with pytest.raises(ValueError, match="angle entries, over the limit of 4194304"):
            invariance_demo(3, n, RationalPhase(1, 12), partition)
    for n, partition in [(161, None), (128, (63, 65))]:  # the largest accepted N
        with pytest.raises(AssertionError, match="a row was built"):
            invariance_demo(3, n, RationalPhase(1, 12), partition)


def test_invariance_demo_validation():
    with pytest.raises(ValueError):
        invariance_demo(3, 2, RationalPhase(1, 12))
    with pytest.raises(ValueError):
        invariance_demo(3, 4, RationalPhase(1, 12), partition=(2, 2))
    with pytest.raises(ValueError):
        invariance_demo(3, 4, RationalPhase(1, 12), partition=(1, 2))


def demo_terms(report):
    """Each relation of a demo as its terms (c, qudit from 0, angle), in order."""
    n, phi = report.n, report.angle
    pairs = itertools.permutations(range(n), 2)
    terms = [[(1, i, phi), (1, j, -phi)] for i, j in pairs]
    terms += [[(1, i, phi), (-1, 0, phi)] for i in range(1, n)]
    terms.append([(1, 0, phi), (1, 0, -phi)])
    if report.partition is not None:
        n1, n2 = report.partition
        lam = RationalPhase.from_fraction(phi.as_fraction() * Fraction(n1, n2))
        terms.append([(n1, 0, phi), (-n2, 0, lam)])
    return terms


def label_variations(terms):
    """The sum of c*dX_i(a) = c*(x(i, a) - x(i, 0)) as a functional of labels."""
    functional = Counter()
    for c, i, a in terms:
        functional[FactorLabel(i + 1, a)] += c
        functional[FactorLabel(i + 1, ZERO_PHASE)] -= c
    return functional


def test_invariance_demo_matches_forced_value_on_the_label_system():
    # every relation, decided in variation coordinates, against the label
    # system's forced_value: at angle 0, at 1/2 (where phi = -phi), at 2/3
    # with partition 1:2 at N = 3 (where lambda*phi = -phi), and at every
    # partition of each small cell; at N = 7 and 8 most pair rows are ones
    # the demo's elimination skips
    lam_is_minus_phi = 0
    cells = itertools.product(range(2, 10), range(3, 7))
    for d, n in itertools.chain(cells, itertools.product((4, 6, 9), (7, 8))):
        partitions = [None] + [(k, n - k) for k in range(1, n) if n - k > k]
        angles = [ZERO_PHASE, RationalPhase(1, 2), RationalPhase(2, 3)]
        angles += [RationalPhase(1, 12), RationalPhase(5, 2 * d * n)]
        for angle, partition in itertools.product(angles, partitions):
            report = invariance_demo(d, n, angle, partition)
            terms = demo_terms(report)
            assert len(report.relations) == len(terms)
            for relation, relation_terms in zip(report.relations, terms):
                functional = label_variations(relation_terms)
                assert relation.forced == forced_value(report.system, functional)
            if partition is not None and terms[-1][1][2] == -angle:
                lam_is_minus_phi += 1
    assert lam_is_minus_phi >= 8  # (2/3, N = 3, 1:2) for every d


def test_reduce_in_variation_coordinates_matches_forced_value():
    # random functionals s*S + sum of c*y(q, a) over a demo's family,
    # forced or not, reduced by the family's variation basis, against
    # forced_value of s*sum_q x(q, 0) + sum of c*(x(q, a) - x(q, 0))
    rng = random.Random(23)
    outcomes = Counter()
    cases = [
        (4, 3, RationalPhase(1, 12), None),
        (2, 3, RationalPhase(2, 3), (1, 2)),
        (6, 4, RationalPhase(1, 2), (1, 3)),
        (8, 5, RationalPhase(3, 16), (2, 3)),
        (9, 4, RationalPhase(1, 6), None),
        (12, 3, RationalPhase(1, 8), (1, 2)),
    ]
    for d, n, angle, partition in cases:
        system = invariance_demo(d, n, angle, partition).system
        items = [
            (
                ProductOperator(d, [system.variables[i].angle for i, _ in con.coeffs]),
                RationalPhase(con.rhs, d),
            )
            for con in system.constraints
        ]
        enc = encode(d, items)
        rows = hidden_variables._variation_rows(enc)
        basis = hidden_variables._howell_basis(d, len(enc.variations) + 1, rows)
        labels = list(enc.variations)
        for _ in range(40):
            s = rng.randrange(d)
            row = {0: s} if s else {}
            functional = Counter({FactorLabel(q + 1, ZERO_PHASE): s for q in range(n)})
            for q, e in rng.sample(labels, min(len(labels), rng.randint(1, 3))):
                c = rng.randrange(1, d)
                row[enc.variations[q, e]] = c
                functional[FactorLabel(q + 1, RationalPhase(e, enc.common))] += c
                functional[FactorLabel(q + 1, ZERO_PHASE)] -= c
            value = hidden_variables._reduce(d, basis, row)
            assert value == forced_value(system, functional)
            outcomes[value is None] += 1
    assert outcomes[True] > 20 and outcomes[False] > 20


def test_invariance_demo_builds_no_label_basis(monkeypatch):
    # the relations are decided in variation coordinates: no label system
    # while the demo runs, and no forced_value query or Howell basis of it
    # when it is read afterwards
    def refuse(*args):
        raise AssertionError("label system or basis built")

    monkeypatch.setattr(hidden_variables, "forced_value", refuse)
    monkeypatch.setattr(HVSystem, "_howell", property(refuse))
    cases = [
        (12, 12, RationalPhase(5, 144), None),
        (8, 8, RationalPhase(7, 64), (3, 5)),
        (4, 3, ZERO_PHASE, None),
    ]
    def no_operator(*args):
        raise AssertionError("operator built")

    builder = hidden_variables.system_from_operators
    rotations = hidden_variables._with_rotations
    for d, n, angle, partition in cases:
        # the demo runs on integer rows: no operator either, until the
        # label system is read
        monkeypatch.setattr(hidden_variables, "system_from_operators", refuse)
        monkeypatch.setattr(hidden_variables, "_with_rotations", no_operator)
        report = invariance_demo(d, n, angle, partition)
        assert report.all_forced
        monkeypatch.setattr(hidden_variables, "system_from_operators", builder)
        with pytest.raises(AssertionError, match="operator built"):
            report.system
        monkeypatch.setattr(hidden_variables, "_with_rotations", rotations)
        assert len(report.system.constraints) > n
        assert report.system is report.system  # built once, on first read


def test_invariance_demo_eliminates_a_generating_set_of_its_rows(monkeypatch):
    # X^N's row and the pair rows of (0, j), (i, 0), (1, j) for j >= 2 and
    # (2, 1), at phi and, with a partition, at the scaled angle, then the
    # group row: 3N-2 rows, or 6N-4, of the family's 1 + N(N-1), or twice
    # that, handed to the elimination as the family numbers them
    calls = []
    real = hidden_variables._howell_basis

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hidden_variables, "_howell_basis", counted)
    cases = [
        (12, 12, RationalPhase(5, 144), None, 34),
        (8, 8, RationalPhase(7, 64), (3, 5), 44),
    ]
    for d, n, angle, partition, size in cases:
        calls.clear()
        report = invariance_demo(d, n, angle, partition)
        assert report.all_forced
        (_, width, rows), = calls
        assert len(rows) == size
        kept = {(0, j) for j in range(1, n)} | {(i, 0) for i in range(1, n)}
        kept |= {(1, j) for j in range(2, n)} | {(2, 1)}
        pairs = [pair in kept for pair in itertools.permutations(range(n), 2)]
        keep = [True, *pairs] if partition is None else [True, *pairs, *pairs, True]
        enc = report._encoding
        family = hidden_variables._variation_rows(enc)
        assert len(family) == len(keep) == len(report.system.constraints)
        assert width == len(enc.variations) + 1
        assert rows == [row for row, k in zip(family, keep) if k]


def demo_family(d, n, angle, partition):
    """A demo's (operator, eigenphase) items, built factor by factor from
    the caller's signed angle."""
    phi = as_turns(angle)
    turns = [phi]
    if partition is not None:
        turns.append(phi * Fraction(partition[0], partition[1]))

    def operator(placed):
        angles = [RationalPhase.from_fraction(placed.get(k, 0)) for k in range(n)]
        return ProductOperator(d, angles), ZERO_PHASE

    items = [operator({})]
    for a in turns:
        items += [operator({i: a, j: -a}) for i, j in itertools.permutations(range(n), 2)]
    if partition is not None:
        n1 = partition[0]
        items.append(operator({k: phi if k < n1 else -turns[1] for k in range(n)}))
    return items


def test_lazy_demo_system_equals_the_eagerly_built_one():
    # the label system read from a report is the one built eagerly from
    # the same family, byte for byte; the scaled angle comes from the
    # signed angle, so 9/8 and 1/8 of a turn give different systems
    cases = [
        (3, 3, RationalPhase(1, 12), None),
        (12, 12, RationalPhase(5, 144), None),
        (8, 8, RationalPhase(7, 64), (3, 5)),
        (8, 8, Fraction(9, 8), (3, 5)),
        (8, 8, Fraction(1, 8), (3, 5)),
        (6, 4, Fraction(-1, 12), (1, 3)),
        (4, 3, ZERO_PHASE, (1, 2)),
    ]
    texts = {}
    for d, n, angle, partition in cases:
        report = invariance_demo(d, n, angle, partition)
        eager = system_from_operators(d, demo_family(d, n, angle, partition))
        text = json.dumps(report.system.to_json_dict())
        assert text == json.dumps(eager.to_json_dict())
        texts[angle] = text
    assert texts[Fraction(9, 8)] != texts[Fraction(1, 8)]
    assert '"27/40"' in texts[Fraction(9, 8)] and '"27/40"' not in texts[Fraction(1, 8)]
    assert '"3/40"' in texts[Fraction(1, 8)]


def test_invariance_demo_rows_are_the_encoding_of_its_operators():
    # the rows the demo builds are the oracle's encoding of its family
    # built operator by operator: every partition of each small cell, at
    # angles that are 0, their own negative (1/2), signed (-1/12) or past
    # a whole turn (9/8)
    cases = 0
    for d in range(2, 10):
        for n in range(3, 8):
            partitions = [None] + [(k, n - k) for k in range(1, n) if n - k > k]
            angles = [ZERO_PHASE, RationalPhase(1, 2), RationalPhase(2, 3)]
            angles += [RationalPhase(1, 12), RationalPhase(5, 2 * d * n)]
            angles += [Fraction(9, 8), Fraction(-1, 12)]
            for angle, partition in itertools.product(angles, partitions):
                enc = invariance_demo(d, n, angle, partition)._encoding
                expected = encode(d, demo_family(d, n, angle, partition))
                assert enc.common == expected.common
                assert enc.rows == expected.rows
                assert enc.totals == expected.totals
                assert enc.claims == expected.claims
                cases += 1
    assert cases == 784


def solutions(d, n, rows):
    """Every solution in Z_d^n of sparse rows {column: coeff}, rhs at -1."""
    points = np.indices((d,) * n).reshape(n, -1).T
    ok = np.ones(len(points), dtype=bool)
    for row in rows:
        lhs = sum(c * points[:, j] for j, c in row.items() if j >= 0)
        ok &= lhs % d == row.get(-1, 0)
    return points[ok]


def test_reduce_answers_on_bases_with_non_unit_pivots():
    # _reduce where pivots need not be units: combinations of the rows are
    # forced at their combined right-hand side; a forced value is the
    # functional at a known solution (the random point, or 0 on a demo
    # family, whose rows all claim 0); and where Z_d^n is small, every
    # solution is enumerated and the functional is forced iff it takes one
    # value on all of them.  Random functionals are mostly free.
    rng = random.Random(30)
    outcomes = Counter()

    def check(d, n, rows, functionals, point):
        basis = hidden_variables._howell_basis(d, n, rows)
        every = solutions(d, n, rows) if d**n <= 4096 else None
        for v, expected in functionals:
            value = hidden_variables._reduce(d, basis, dict(v))
            if expected is not None:
                assert value == expected
            if value is not None:
                assert value == sum(c * point[j] for j, c in v.items()) % d
            if every is not None:
                taken = np.unique(sum(c * every[:, j] for j, c in v.items()) % d)
                assert value == (int(taken[0]) if len(taken) == 1 else None)
                outcomes["enumerated"] += 1
            outcomes[d, value is None] += 1

    for d in (4, 6, 8, 9, 12):
        for _ in range(25):
            n = rng.randint(2, 9)
            x = [rng.randrange(d) for _ in range(n)]
            rows = []
            for _ in range(rng.randint(1, 8)):
                row = {j: rng.randrange(1, d) for j in rng.sample(range(n), rng.randint(1, n))}
                if rhs := sum(c * x[j] for j, c in row.items()) % d:
                    row[-1] = rhs
                rows.append(row)
            functionals = []
            for _ in range(6):
                weights = [rng.randrange(d) for _ in rows]
                v = Counter()
                for w, row in zip(weights, rows):
                    for j, c in row.items():
                        v[j] += w * c
                rhs = v.pop(-1, 0) % d
                forced = {j: c % d for j, c in v.items() if c % d}
                functionals.append((forced, rhs))
                free = {j: rng.randrange(1, d) for j in rng.sample(range(n), rng.randint(1, n))}
                functionals.append((free, None))
            check(d, n, rows, functionals, x)
        demos = [(4, RationalPhase(1, 12), None), (5, RationalPhase(1, 2 * d), (2, 3))]
        for n, angle, partition in demos:
            enc = invariance_demo(d, n, angle, partition)._encoding
            width = len(enc.variations) + 1
            functionals = []
            for _ in range(20):
                columns = rng.sample(range(width), rng.randint(1, 3))
                functionals.append(({j: rng.randrange(1, d) for j in columns}, None))
            check(d, width, hidden_variables._variation_rows(enc), functionals, [0] * width)
    for d in (4, 6, 8, 9, 12):
        assert outcomes[d, True] > 20 and outcomes[d, False] > 20
    assert outcomes["enumerated"] > 300


def demo_rows(report):
    """Each relation of a demo as the sparse row that _reduce is given."""
    d, enc = report.d, report._encoding
    rows = []
    for terms in demo_terms(report):
        row = Counter()
        for c, i, a in terms:
            if e := a.num * (enc.common // a.den):
                row[enc.variations[i, e]] += c
        rows.append({k: c % d for k, c in row.items() if c % d})
    return rows


DEMO_QUERIES = [
    (12, 12, RationalPhase(5, 144), None, 34),
    (8, 8, RationalPhase(7, 64), (3, 5), 23),
]


def test_invariance_demo_reduces_a_generating_set_of_its_relations(monkeypatch):
    # F(0, j), F(i, 0), F(1, j) for j >= 2 and F(2, 1), then oddness and
    # the scaling relation: 3N-2 reductions, or 3N-1, of N(N-1) + N or
    # N(N-1) + N + 1 relations, in the order of the relations
    calls = []
    real = hidden_variables._reduce

    def counted(d, basis, v):
        calls.append(dict(v))
        return real(d, basis, v)

    monkeypatch.setattr(hidden_variables, "_reduce", counted)
    for d, n, angle, partition, size in DEMO_QUERIES:
        calls.clear()
        report = invariance_demo(d, n, angle, partition)
        assert report.all_forced
        assert len(calls) == size == 3 * n - 2 + (partition is not None)
        pairs = list(itertools.permutations(range(n), 2))
        generators = [i < 2 or j == 0 or (i, j) == (2, 1) for i, j in pairs]
        generators += [False] * (n - 1) + [True] * (1 + (partition is not None))
        assert calls == list(itertools.compress(demo_rows(report), generators))


def test_invariance_demo_sums_its_relations_as_functionals(monkeypatch):
    # with _reduce replaced by a random linear map L of the row, a relation
    # that is not reduced must still read L of its own row: its value is
    # summed from reduced ones only by identities that hold term by term,
    # at angle 0, at 1/2 (where phi = -phi) and with a partition
    rng = random.Random(34)
    cases = 0
    for d, n in itertools.product((3, 4, 6, 7), range(3, 7)):
        partitions = [None] + [(k, n - k) for k in range(1, n) if n - k > k]
        angles = [ZERO_PHASE, RationalPhase(1, 2), RationalPhase(1, 12), RationalPhase(5, 2 * d)]
        for angle, partition in itertools.product(angles, partitions):
            weights = [rng.randrange(d) for _ in range(4 * n + 2)]

            def linear(d, basis, v):
                return sum(weights[k] * c for k, c in v.items()) % d

            monkeypatch.setattr(hidden_variables, "_reduce", linear)
            report = invariance_demo(d, n, angle, partition)
            assert [r.forced for r in report.relations] == [
                linear(d, None, row) for row in demo_rows(report)
            ]
            cases += 1
    assert cases == 160


def test_invariance_demo_reduces_a_relation_whose_part_is_unforced(monkeypatch):
    # with F(1, 0) reported unforced, that relation reads None, and each
    # relation summed from it, F(i, j) for i, j >= 2, is reduced by its own
    # call and keeps its value; every other relation is as before
    real = hidden_variables._reduce
    for d, n, angle, partition, size in DEMO_QUERIES:
        before = invariance_demo(d, n, angle, partition)
        rows = demo_rows(before)
        pairs = list(itertools.permutations(range(n), 2))
        target = rows[pairs.index((1, 0))]
        through = [k for k, (i, j) in enumerate(pairs) if i >= 2 and j >= 2]
        assert len(through) == (n - 2) * (n - 3)
        calls = []

        def unforced(d, basis, v):
            calls.append(dict(v))
            return None if v == target else real(d, basis, v)

        monkeypatch.setattr(hidden_variables, "_reduce", unforced)
        report = invariance_demo(d, n, angle, partition)
        monkeypatch.setattr(hidden_variables, "_reduce", real)
        assert len(calls) == size + len(through)
        assert all(calls.count(rows[k]) == 1 for k in through)
        assert len(report.relations) == len(before.relations)
        for k, (relation, plain) in enumerate(zip(report.relations, before.relations)):
            assert relation.description == plain.description
            assert relation.forced == (None if k == pairs.index((1, 0)) else plain.forced)


TAMPERED_DEMO = """
from ghzcert import RationalPhase, hidden_variables

real = hidden_variables._pair_rows


def tampered(n, up, down):
    # the first pair loses its factor at -phi: an eigenoperator at phi,
    # claimed at 0
    (support, claim), *rest = real(n, up, down)
    return [(support[:1], claim), *rest]


hidden_variables._pair_rows = tampered
try:
    hidden_variables.invariance_demo(4, 3, RationalPhase(1, 12))
except ValueError as exc:
    print(__debug__, exc)
"""


def assert_demo_rejected(script):
    """The script's tampered demo raises the eigenphase check, with and
    without python -O."""
    src = Path(__file__).resolve().parents[1] / "src"
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=False,
            timeout=60,
        )
        assert done.returncode == 0 and done.stderr == ""
        debug = "False" if flags else "True"
        assert done.stdout == f"{debug} a demo operator's claimed eigenphase is not its exact one\n"


def test_invariance_demo_rejects_a_tampered_eigenphase():
    # a check, not an assert: it still raises under python -O
    assert_demo_rejected(TAMPERED_DEMO)


TAMPERED_SKIPPED_ROW = """
from ghzcert import RationalPhase, hidden_variables

real = hidden_variables._pair_rows


def tampered(n, up, down):
    # the last ordered pair, (N, N-1), loses its factor at -phi
    *rest, (support, claim) = real(n, up, down)
    return [*rest, (support[1:], claim)]


hidden_variables._pair_rows = tampered
try:
    hidden_variables.invariance_demo(4, 5, RationalPhase(1, 12))
except ValueError as exc:
    print(__debug__, exc)
"""


def test_invariance_demo_checks_the_rows_it_does_not_eliminate(monkeypatch):
    # the tampered row is one the elimination skips: with the claim check
    # switched off the demo forces every relation, so only the check,
    # which reads every row of the family, can reject it
    real = hidden_variables._pair_rows

    def tampered(n, up, down):
        *rest, (support, claim) = real(n, up, down)
        return [*rest, (support[1:], claim)]

    monkeypatch.setattr(hidden_variables, "_pair_rows", tampered)
    monkeypatch.setattr(hidden_variables, "_claims_hold", lambda d, enc: True)
    assert invariance_demo(4, 5, RationalPhase(1, 12)).all_forced
    assert_demo_rejected(TAMPERED_SKIPPED_ROW)


TAMPERED_SOLVE = """
import sys

from ghzcert import cli, hidden_variables

# a basis with no rows: every system is SAT with the all-zero witness
hidden_variables._howell_basis = lambda d, n, rows: [None] * (n + 1)
print(__debug__, cli.main(["hv-solve", sys.argv[1]]))
"""


def test_solve_rejects_a_witness_from_a_tampered_basis(tmp_path):
    # a check, not an assert: it still raises under python -O, and the
    # CLI turns it into exit code 2 with no verdict
    path = tmp_path / "system.json"
    path.write_text(json.dumps(raw_system(3, [[1]], [2]).to_json_dict()))
    src = Path(__file__).resolve().parents[1] / "src"
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", TAMPERED_SOLVE, str(path)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=False,
            timeout=60,
        )
        debug = "False" if flags else "True"
        assert done.returncode == 0 and done.stdout == f"{debug} 2\n"
        assert done.stderr == "error: the solver's witness fails a congruence of the system\n"


def test_system_json_round_trip():
    system = method1_system(3, 4, 3)
    data = system.to_json_dict()
    rebuilt = HVSystem.from_json_dict(data)
    assert rebuilt == system
    assert solve(rebuilt).status == "UNSAT"
    assert data["d"] == 3
    assert {"qudit": 1, "angle": "0/1"} in data["vars"]


def test_system_json_rejects_bad_index():
    data = {
        "d": 3,
        "vars": [{"qudit": 1, "angle": "0/1"}],
        "constraints": [{"coeffs": [[5, 1]], "rhs": 0}],
    }
    with pytest.raises(ValueError):
        HVSystem.from_json_dict(data)
