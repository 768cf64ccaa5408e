"""Congruence systems over Z_d: solver, oracle agreement, forced relations."""

import itertools
import math
import random

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


def test_brute_force_vectorized_path_matches_scalar_path():
    # a 65536-point sweep whose least witness sets only the last variable
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
    # an over-limit demo is refused before any operator is built
    def build(*args):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(hidden_variables, "_with_angles", build)
    for n, partition in [(162, None), (129, (64, 65))]:
        with pytest.raises(ValueError, match="angle entries, over the limit of 4194304"):
            invariance_demo(3, n, RationalPhase(1, 12), partition)
    for n, partition in [(161, None), (128, (63, 65))]:  # the largest accepted N
        with pytest.raises(AssertionError, match="an operator was built"):
            invariance_demo(3, n, RationalPhase(1, 12), partition)


def test_invariance_demo_validation():
    with pytest.raises(ValueError):
        invariance_demo(3, 2, RationalPhase(1, 12))
    with pytest.raises(ValueError):
        invariance_demo(3, 4, RationalPhase(1, 12), partition=(2, 2))
    with pytest.raises(ValueError):
        invariance_demo(3, 4, RationalPhase(1, 12), partition=(1, 2))


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
