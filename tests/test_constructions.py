"""The three contradiction families, the regime map, and certification."""

import copy
import dataclasses
import itertools
import json
import math
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzcert import (
    CertificationError,
    Construction,
    HVVerdict,
    NoContradiction,
    PhaseParseError,
    ProductOperator,
    RationalPhase,
    RegimeCell,
    ZERO_PHASE,
    brute_force_solve,
    check_genuine_dimension,
    check_irreducible,
    classify,
    classify_plane,
    make_ghz,
    eigenvalue_exponent,
    method1,
    method1_operator_set,
    method2,
    method2_operator_set,
    method3,
    satisfiable,
    solve,
    system_from_operators,
    verify_construction,
    witness_construction,
)
from ghzcert import constructions, hidden_variables, operators
from ghzcert.constructions import _within
from ghzcert.hidden_variables import _howell_basis, _proves_unsat
from operator_families import encode, from_items, items_json


def full_system(construction):
    return system_from_operators(construction.d, construction.all_items())


def qudit_exponents(c):
    """The distinct exponents over D on each qudit: its measurement bases."""
    return constructions._qudit_exponents(c.n, c._encoding.rows)


# ---------------------------------------------------------------------------
# method 1
# ---------------------------------------------------------------------------


def test_method1_qutrit_example():
    c = method1(3, 4, 3)
    assert isinstance(c, Construction)
    assert c.operator_count() == 5  # N + 1
    assert c.phi_o == RationalPhase(1, 9)
    assert c.f == 3
    cert = verify_construction(c)  # brute force runs: 3^8 assignments
    assert cert.quantum_ok
    assert cert.hv_verdict.status == "UNSAT"
    assert cert.oracle_checked
    assert cert.genuinely_d_dimensional
    assert cert.irreducible == (True, True, True, True)
    assert cert.certified


def test_method1_multiple_of_f_has_no_contradiction():
    result = method1(3, 6, 3)
    assert isinstance(result, NoContradiction)
    # and the would-be system is indeed satisfiable
    supporting, target = method1_operator_set(3, 6, 3)
    assert satisfiable(system_from_operators(3, supporting + [target]))


def test_method1_composite_dimension(monkeypatch):
    c = method1(4, 5, 2)
    assert isinstance(c, Construction)
    system = full_system(c)
    assert solve(system).status == "UNSAT"
    # 4^10 assignments, exhaustively confirmed with a raised cap
    monkeypatch.setattr(hidden_variables, "DEFAULT_BRUTE_CAP", 2**20)
    assert brute_force_solve(system).status == "UNSAT"


def test_method1_auto_factor_selection():
    c = method1(12, 5)
    assert isinstance(c, Construction) and c.f == 2
    c = method1(12, 4)  # 4 % 2 == 0 but 4 % 3 != 0
    assert isinstance(c, Construction) and c.f == 3
    assert isinstance(method1(3, 6), NoContradiction)
    assert isinstance(method1(2, 4), NoContradiction)


def test_method1_validation():
    with pytest.raises(ValueError):
        method1(3, 4, 2)  # 2 does not divide 3
    with pytest.raises(ValueError):
        method1(3, 4, 1)
    with pytest.raises(ValueError):
        method1(3, 3, 3)  # needs N > f
    with pytest.raises(ValueError):
        method1(3, 2)
    with pytest.raises(ValueError):
        method1(1, 4)


def test_method1_block_shapes():
    c = method1(3, 5, 3)
    phi_o = RationalPhase(1, 9)  # 1/(f*d)
    x_op, x_exp = c.operators[0]
    assert x_op.angles == (ZERO_PHASE,) * 5 and x_exp == ZERO_PHASE
    for op, exp in c.all_items()[1:]:
        assert exp == RationalPhase(1, 3)
        assert sorted(op.angles.count(a) for a in {ZERO_PHASE, phi_o}) == [2, 3]
    # blocks are contiguous with wrap-around: each is a cyclic rotation
    rotated_count = sum(
        1
        for op, _ in c.all_items()[1:]
        for k in range(5)
        if op.angles[k] == phi_o and op.angles[(k + 1) % 5] == phi_o
    )
    assert rotated_count == 10  # 2 adjacent pairs per block, 5 blocks


def test_method1_basis_counts():
    for d, n, f in [(3, 4, 3), (4, 5, 2), (2, 3, 2), (6, 7, 3)]:
        c = method1(d, n, f)
        assert all(len(used) == 2 for used in qudit_exponents(c))


# ---------------------------------------------------------------------------
# method 2
# ---------------------------------------------------------------------------


def test_method2_example():
    c = method2(3, 3)
    assert isinstance(c, Construction)
    assert c.operator_count() == 6  # N + 3
    cert = verify_construction(c)
    assert cert.certified and cert.quantum_ok
    assert cert.irreducible == (True, True, True)


def test_method2_pattern_layout():
    supporting, target = method2_operator_set(3, 3)
    phi_o = RationalPhase(1, 9)
    y, yt = phi_o, -phi_o
    angle_rows = [op.angles for op, _ in supporting]
    assert angle_rows == [
        (ZERO_PHASE, ZERO_PHASE, ZERO_PHASE),
        (y, ZERO_PHASE, yt),
        (ZERO_PHASE, y, yt),
        (ZERO_PHASE, yt, y),
        (y, yt, ZERO_PHASE),
    ]
    assert target[0].angles == (y, y, y)
    assert target[1] == RationalPhase(1, 3)


def test_method2_coprime_case_is_satisfiable():
    result = method2(5, 3)
    assert isinstance(result, NoContradiction)
    supporting, target = method2_operator_set(5, 3)
    assert satisfiable(system_from_operators(5, supporting + [target]))


def test_method2_shared_factor_case():
    c = method2(4, 6)
    assert isinstance(c, Construction)
    assert solve(full_system(c)).status == "UNSAT"
    # reduced single-variable condition: N*delta = 1 (mod d) has no solution
    assert all((6 * delta) % 4 != 1 for delta in range(4))


def test_method2_validation():
    with pytest.raises(ValueError):
        method2(3, 2)


def test_method2_basis_counts():
    for d, n in [(3, 3), (4, 6), (2, 4), (6, 8)]:
        c = method2(d, n)
        counts = sorted(len(used) for used in qudit_exponents(c))
        assert counts == [2] * (n - 2) + [3, 3]


def test_method2_criterion_matches_gcd():
    for d in range(2, 13):
        for n in range(3, 21):
            supporting, target = method2_operator_set(d, n)
            status = satisfiable(system_from_operators(d, supporting + [target]))
            assert status == (math.gcd(n, d) == 1)
            assert isinstance(method2(d, n), Construction) == (math.gcd(n, d) > 1)


def test_method2_solve_grows_linearly_in_n():
    # The target row has N entries and is reduced once per qudit by short
    # pivot rows.  A kernel that copies or rescans the row at each step
    # grows as N^2: four times N then costs about sixteen times as much.
    def best_of_3(n):
        c = method2(10, n)
        c._encoding  # built once, outside the timed calls
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert constructions._exact_checks(c)[1].status == "UNSAT"
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_of_3(4000) / best_of_3(1000) < 8


# ---------------------------------------------------------------------------
# method 3
# ---------------------------------------------------------------------------


def test_method3_smallest_case():
    c = method3(5, 3)
    assert c.operator_count() == 8
    assert c.phi_o == RationalPhase(1, 25)
    assert [str(a) for a in c.target[0].angles] == ["1/25", "3/25", "1/25"]
    assert c.chain == (-2, 3)
    cert = verify_construction(c)
    assert cert.certified and cert.quantum_ok and cert.oracle_checked
    assert cert.genuinely_d_dimensional
    assert all(cert.irreducible)


def test_method3_seven_dimensional_cases():
    c = method3(7, 3)
    assert c.operator_count() == 10
    # the ladder ends with multiplier 5 on the third qudit
    assert c.target[0].angles[2] == RationalPhase(5, 49)
    assert set(c.chain) == {2, -2, -3, 5}
    cert = verify_construction(c)
    assert cert.certified and all(cert.irreducible)

    c = method3(7, 6)
    assert c.operator_count() == 10  # N + 4
    assert c.chain == (2,)
    assert c.target[0].angles[0] == RationalPhase(2, 49)
    assert c.target[0].angles[1:] == (RationalPhase(1, 49),) * 5
    cert = verify_construction(c)
    assert cert.certified and all(cert.irreducible)


def test_method3_single_chain_op_shape():
    # the lone chain operator pairs the doubled factor with two conjugates
    c = method3(7, 6)
    chain_op = c.operators[-1][0]
    assert chain_op.angles[0] == RationalPhase(2, 49)
    assert chain_op.angles[4] == chain_op.angles[5] == -RationalPhase(1, 49)
    assert chain_op.angles[1:4] == (ZERO_PHASE,) * 3


def test_method3_non_fibonacci_gap():
    c = method3(7, 4)  # needs multiplier 4, which the ladder cannot reach
    cert = verify_construction(c)
    assert cert.certified and cert.genuinely_d_dimensional
    assert c.chain is not None and 4 in {abs(v) for v in c.chain}


def test_method3_all_regime3_cells_certify():
    cells = [
        (d, n)
        for d in range(2, 201)
        for n in range(3, 9)
        if classify(d, n).regime == 3
    ]
    assert len(cells) == 330
    for d, n in cells + [(10**12 + 39, 3), (2**61 - 1, 3)]:
        cert = verify_construction(method3(d, n), oracle=False)
        assert cert.certified, (d, n)
        assert cert.genuinely_d_dimensional, (d, n)
        assert all(cert.irreducible), (d, n)


def test_method3_validation():
    with pytest.raises(ValueError):
        method3(5, 5)
    with pytest.raises(ValueError):
        method3(5, 2)
    with pytest.raises(ValueError):
        method3(3, 4)


def test_method3_count_lower_bound():
    for cell in classify_plane(12, 20):
        if cell.regime == 3:
            c = witness_construction(cell)
            assert c.operator_count() >= c.n + 4


def test_method3_basis_minimums():
    # at least three bases on the three chain qudits, exactly two elsewhere
    for d, n in [(5, 3), (7, 3), (7, 4), (7, 6), (11, 5), (11, 10)]:
        c = method3(d, n)
        counts = [len(used) for used in qudit_exponents(c)]
        actives = {0, n - 2, n - 1}
        for k, count in enumerate(counts):
            if k in actives:
                assert count >= 3, (d, n, k)
            else:
                assert count == 2, (d, n, k)


def test_method3_ladder_fallback_keeps_certifying():
    # m = 13 is on the ladder, but at d = 16 the ladder would put +13 and
    # -3 on one qudit (difference exactly d, a folded basis); the binary
    # chain for 13 = 0b1101 takes over and the certificate still goes through
    c = method3(16, 4)
    assert c.chain == (2, -2, 3, -3, -3, 6, -6, -6, 12, -12, 13)
    assert c.target[0].angles[0] == RationalPhase(13, 256)
    cert = verify_construction(c, oracle=False)
    assert cert.certified and cert.genuinely_d_dimensional

    c = method3(26, 6)  # m = 21, same story
    cert = verify_construction(c, oracle=False)
    assert cert.certified and cert.genuinely_d_dimensional


def check_chain(m, chain):
    # each op sits at net angle zero and adds one multiplier to the seeds
    # of the conjugate pairs, the one it records
    ops, landing = chain
    held = [{1}, {1, -1}, {1, -1}]
    for placed, new in ops:
        assert sum(placed.values()) == 0
        added = [(p, k) for p, k in placed.items() if k not in held[p]]
        assert [k for _, k in added] == [new]
        held[added[0][0]].add(new)
    assert m in held[landing]
    return held


def test_binary_chain_spans_less_than_d():
    near_powers = [2**k + e for k in range(12, 63) for e in (-1, 0, 1)]
    for m in [*range(2, 2**12), *near_powers]:
        chain = constructions._binary_chain(m)
        assert chain[1] == 0
        on_l, on_q, on_r = check_chain(m, chain)
        # with 0 for a plain factor and the target's m and 1, every qudit's
        # multipliers span at most m = d-N+1 < d
        assert 0 < min(on_l) and max(on_l) == m
        assert min(on_q) >= -(m - 1) and max(on_q) == 1
        assert min(on_r) >= -(m - 1) and max(on_r) == 1
        assert len(chain[0]) <= 5 * math.log2(m)


def test_method3_bounds_the_binary_chain():
    # m = 2**16 + 2 is off the ladder; the binary chain needs at most five
    # operators per bit of m, on top of the N + 2 conjugate-pair items and
    # the target
    d, n = 2**16 + 4, 3
    c = method3(d, n)
    assert c.operator_count() <= n + 3 + 5 * math.log2(d - n + 1)
    assert verify_construction(c, oracle=False).certified
    # a genuinely d-dimensional ladder is built at any d: m = 121393
    c = method3(121395, 3)
    assert c.operator_count() == 52
    assert verify_construction(c, oracle=False).certified


def recursive_ladder(m):
    # reference: emit each (level, sign) the top's +1 needs, depth first
    value = {-1: 1, 0: 1, 1: 2}
    top = 1
    while value[top] < m:
        top += 1
        value[top] = value[top - 1] + value[top - 2]
    ops, have = [], set()

    def need(j, sign):
        if j <= 0 or (j, sign) in have:
            return
        need(j - 1, -sign)
        need(j - 2, -sign)
        placed = {
            (j - 1) % 3: sign * value[j],
            (j - 2) % 3: -sign * value[j - 1],
            (j - 3) % 3: -sign * value[j - 2],
        }
        ops.append((placed, sign * value[j]))
        have.add((j, sign))

    need(top, +1)
    return ops, (top - 1) % 3


def test_ladder_matches_the_recursive_ladder():
    fib = [1, 2]
    while len(fib) < 81:
        fib.append(fib[-1] + fib[-2])
    for level, m in enumerate(fib[1:], start=1):
        ops, landing = constructions._ladder_chain(m)
        assert (ops, landing) == recursive_ladder(m), level
        assert len(ops) == max(1, 2 * level - 2)
        check_chain(m, (ops, landing))
    assert constructions._ladder_chain(fib[40] + 1) is None


def test_method3_certifies_a_thousand_level_ladder():
    # m = F_1001, 210 digits: the recursive ladder overflowed Python's
    # recursion limit here, and construct exited 2
    value = [1, 2]  # F_0, F_1, ...
    while len(value) < 1002:
        value.append(value[-1] + value[-2])
    c = method3(value[-1] + 2, 3)
    assert c.operator_count() == 2006
    assert len(c.chain) == 2000 and c.chain[-1] == value[-1]
    cert = verify_construction(c, oracle=False)
    assert cert.certified and cert.genuinely_d_dimensional and all(cert.irreducible)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_contradictions_start_just_past_the_smallest_factor():
    # for each d the first block-rotation cell sits at N = p+1, where p is
    # the smallest prime factor of d (bounded below by the N >= 3 floor)
    def smallest_prime_factor(d):
        return next(f for f in range(2, d + 1) if d % f == 0)

    for d in range(2, 13):
        first = next(n for n in range(3, 40) if classify(d, n).regime == 1)
        assert first == max(3, smallest_prime_factor(d) + 1)


def test_classify_spot_cells():
    assert classify(2, 3).regime == 1
    assert classify(3, 6).regime == 2
    assert classify(5, 3).regime == 3
    assert classify(5, 4).regime == 3
    cell = classify(12, 5)
    assert cell.regime == 1 and cell.witness_f == 2
    assert classify(12, 7).regime == 1
    # only factors below N can qualify, so a 10^12 dimension costs N steps
    assert classify(10**12, 4) == RegimeCell(10**12, 4, 2)
    assert classify(10**12, 7) == RegimeCell(10**12, 7, 1, 2)
    assert classify(10**12 + 39, 4) == RegimeCell(10**12 + 39, 4, 3)
    with pytest.raises(ValueError):
        classify(3, 2)
    with pytest.raises(ValueError):
        classify(1, 3)


def reference_classify(d, n):
    """The regime rule read literally: every factor f <= d is tried."""
    for f in range(2, d + 1):
        if d % f == 0 and f < n and n % f:
            return RegimeCell(d, n, 1, f)
    return RegimeCell(d, n, 2 if math.gcd(n, d) > 1 else 3)


def test_classify_matches_the_unbounded_scan():
    for d in range(2, 301):
        for n in range(3, 301):
            assert classify(d, n) == reference_classify(d, n), (d, n)


def test_classify_plane_covers_every_cell():
    cells = list(classify_plane(12, 20))
    assert len(cells) == 198
    for cell in cells:
        assert cell.regime in (1, 2, 3)
        assert cell.witness_method == cell.regime
        if cell.regime == 3:
            assert cell.n < cell.d
            assert math.gcd(cell.n, cell.d) == 1


def test_classify_plane_verify_subset():
    classify_plane(5, 6, verify=True)
    with pytest.raises(ValueError):
        classify_plane(1, 6)
    with pytest.raises(ValueError):
        classify_plane(5, 2)


def test_verified_plane_computes_only_what_decides_certified(monkeypatch):
    # the verified plane decides quantum_ok and UNSAT on each witness's
    # rows and weights: it builds no operator, angle or label system, runs
    # no elimination and no other check.  method 3 runs the
    # genuine-dimension flag itself while choosing its ladder, so the
    # plane may make exactly those calls
    def refuse(*args, **kwargs):
        raise AssertionError("the verified plane computed more than certified needs")

    calls = []
    real = constructions._bases_apart

    def counted(d, common, per_qudit):
        per_qudit = list(per_qudit)
        calls.append((d, common, per_qudit))
        return real(d, common, per_qudit)

    for name in (
        "Construction",
        "RationalPhase",
        "_operator_items",
        "_howell_basis",
        "_dense_recheck",
        "brute_force_solve",
        "check_genuine_dimension",
        "check_irreducible",
        "solve",
        "system_from_operators",
    ):
        monkeypatch.setattr(constructions, name, refuse)
    monkeypatch.setattr(hidden_variables, "_with_rotations", refuse)
    monkeypatch.setattr(constructions, "_bases_apart", counted)
    for cell in classify_plane(12, 12):
        constructions._witness_rows(cell)
    built = list(calls)
    assert built  # the plane has Fibonacci-ladder cells
    calls.clear()
    classify_plane(12, 12, verify=True)
    assert calls == built


def test_verified_plane_rejects_a_shifted_claim(monkeypatch):
    # the plane certifies the witness's rows themselves, before it returns
    real = constructions._witness_rows

    def shifted(cell):
        common, rows, weights = real(cell)
        support, claim = rows[-1]
        return common, rows[:-1] + [(support, (claim + 1) % cell.d)], weights

    monkeypatch.setattr(constructions, "_witness_rows", shifted)
    with pytest.raises(
        CertificationError, match=r"cell \(d=2, N=3\) failed certification: quantum_ok=False"
    ):
        classify_plane(12, 12, verify=True)


def test_plane_holds_one_cell_at_a_time():
    tracemalloc.start()
    try:
        count = sum(1 for _ in classify_plane(300, 300))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 299 * 298
    assert peak < 2**20


def test_witness_construction_matches_cell():
    for d, n in [(2, 3), (3, 6), (5, 3), (12, 5)]:
        cell = classify(d, n)
        c = witness_construction(cell)
        assert c.method == cell.witness_method
        assert verify_construction(c, oracle=False).certified


@pytest.mark.parametrize(
    "d, n, chain",
    [
        (16, 4, (2, -3, -2, 5, 3, -8, -5, 13)),
        (26, 6, (-2, 3, 2, -5, -3, 8, 5, -13, -8, 21)),
    ],
)
def test_folded_ladder_is_not_genuinely_d_dimensional(monkeypatch, d, n, chain):
    # the Fibonacci ladders that method3 rejects for folding two bases on
    # one qudit together still certify and are irreducible; the
    # certificate reports the fold
    with monkeypatch.context() as patched:
        patched.setattr(constructions, "_bases_apart", lambda d, common, used: True)
        ladder = method3(d, n)
    assert ladder.chain == chain
    assert method3(d, n).chain != chain  # the binary chain replaces it
    cert = verify_construction(ladder)
    assert cert.certified and all(cert.irreducible)
    assert cert.genuinely_d_dimensional is False
    assert cert.to_json_dict()["genuinely_d_dimensional"] is False


def angles_by_qudit(c):
    """Each qudit's distinct angles, read from the operators: X(0) is
    included wherever some operator leaves the qudit unrotated."""
    used = [set() for _ in range(c.n)]
    for op, _ in c.all_items():
        for q, a in enumerate(op.angles):
            used[q].add(a)
    return used


def test_integer_genuine_dimension_flag_matches_the_angle_test(monkeypatch):
    families = [witness_construction(cell) for cell in classify_plane(12, 20)]
    with monkeypatch.context() as patched:  # the two folded ladders
        patched.setattr(constructions, "_bases_apart", lambda d, common, used: True)
        families += [method3(16, 4), method3(26, 6)]
    flags = Counter()
    for c in families:
        angles = angles_by_qudit(c)
        enc = c._encoding
        exponents = qudit_exponents(c)
        assert [{RationalPhase(e, enc.common) for e in used} for used in exponents] == angles
        expected = [check_genuine_dimension(c.d, used) for used in angles]
        flag = [constructions._bases_apart(c.d, enc.common, [e]) for e in exponents]
        assert flag == expected
        assert verify_construction(c, oracle=False).genuinely_d_dimensional == all(expected)
        flags[all(expected)] += 1
    assert flags == {True: 198, False: 2}


def exactness_families():
    """Every construction of each cell with d, N <= 24 (method 1 at each
    factor that works) and the witnesses of four larger cells."""
    for d in range(2, 25):
        for n in range(3, 25):
            yield witness_construction(classify(d, n))
            for f in range(2, n):
                if d % f == 0 and n % f:
                    yield method1(d, n, f)
            if math.gcd(n, d) > 1:
                yield method2(d, n)
            if n < d:
                yield method3(d, n)
    for d, n in [(24, 40), (40, 39), (97, 5), (211, 5)]:
        yield witness_construction(classify(d, n))


def assembled_families():
    """Families that no method builds, each with the items it was read
    from: supporting operators reordered, a perturbed copy of X^N in
    front, a wrong claim, and an extra qudit at angles over mixed
    denominators."""
    for c in [method1(3, 4, 3), method1(6, 5, 2), method2(4, 6), method3(5, 3)]:
        items = c.all_items()
        ops = c.operators
        op, nu = c.target
        for assembled in (
            [*ops[1:], ops[0], c.target],
            [*ops[::-1], c.target],
            [changed_at(items[0], 0, RationalPhase(1, c.d)), *items],
            [*ops, (op, nu + RationalPhase(1, c.d))],
        ):
            yield with_items(c, assembled), assembled
        angles = [RationalPhase(k, (2, 5)[k % 2] * c.d) for k in range(len(items))]
        for position in (0, c.n):
            wide = widened(c, position, angles)
            yield from_items(c.d, c.n + 1, c.method, c.phi_o, wide, c.f, c.chain), wide


def test_constructions_are_encoded_exactly_from_their_rows():
    # a family's encoding comes from its rows: it must equal the encoding
    # of the operators it came from, a method's operator view or the items
    # a family was assembled from, and the JSON must read back to the same
    # text, rows, encoding and proof hint
    methods = Counter()
    built = ((c, c.all_items()) for c in exactness_families())
    for c, items in itertools.chain(built, assembled_families()):
        from_rows = c._encoding
        encoded = encode(c.d, items)
        assert from_rows == encoded and list(from_rows.variations) == list(encoded.variations)
        text = json.dumps(c.to_json_dict(), indent=2)
        again = Construction.from_json_dict(json.loads(text))
        assert json.dumps(again.to_json_dict(), indent=2) == text
        assert again.rows == c.rows and again._encoding == from_rows
        assert again.weights is None
        assert constructions._method_hint(again) == constructions._method_hint(c)
        methods[c.method] += 1
    assert min(methods.values()) > 100


def test_every_plane_witness_is_genuinely_d_dimensional():
    # no qudit of any witness construction mixes two bases that share
    # orthogonal eigenstates
    for cell in classify_plane(12, 20):
        c = witness_construction(cell)
        for used in angles_by_qudit(c):
            assert check_genuine_dimension(c.d, used), (cell.d, cell.n)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def corrupted(construction):
    op, exponent = construction.target
    bumped = exponent + RationalPhase(1, construction.d)
    return with_items(construction, [*construction.operators, (op, bumped)])


def test_corrupted_construction_fails_quantum_check():
    cert = verify_construction(corrupted(method1(3, 4, 3)))
    assert not cert.quantum_ok
    assert not cert.certified


def test_oracle_flag_reflects_dense_cap():
    c = method2(2, 16)  # 2^16 = 65536 > 4096
    cert = verify_construction(c, oracle=True)
    assert cert.certified and not cert.oracle_checked
    cert = verify_construction(method2(2, 4), oracle=True)
    assert cert.oracle_checked
    cert = verify_construction(method2(2, 4), oracle=False)
    assert not cert.oracle_checked
    # d^N = 4096 sits exactly on the cap, and each cap is decided exactly
    for d, n in [(2, 12), (4, 6), (16, 3)]:
        assert verify_construction(witness_construction(classify(d, n))).oracle_checked
    assert not verify_construction(witness_construction(classify(17, 3))).oracle_checked
    assert _within(10, 6, 10**6) and not _within(10, 7, 10**6)
    start = time.perf_counter()
    assert not _within(10**12, 10**9, 4096)  # decided without the power
    assert time.perf_counter() - start < 0.1


def test_dense_oracle_checks_every_encoded_eigenphase():
    # 70 operators and a tampered total at the first, an odd and the last
    # index: an oracle that sampled at most 64 operators would check only
    # the even ones, and one that dropped an end of the family would miss
    # the first operator or the target
    base = method1(3, 4, 3)
    items = (base.all_items() * 14)[:70]
    for index in (0, 33, 69):
        c = from_items(3, 4, 1, base.phi_o, items)
        assert verify_construction(c, oracle=True).oracle_checked
        encoding = c._encoding
        shifted = list(encoding.totals)
        shifted[index] += encoding.common // c.d  # still on the 1/d grid, one step off
        c.__dict__["_encoding"] = dataclasses.replace(encoding, totals=shifted)
        with pytest.raises(CertificationError, match="dense tensor numerics"):
            verify_construction(c, oracle=True)


def test_dense_oracle_checks_every_collective_angle(monkeypatch):
    # the rows decide without any operator; the dense oracle also compares
    # each operator's exact collective angle with its encoded total, so an
    # operator view whose angles sum to something else stops certification
    c = method2(3, 3)
    real = operators.ProductOperator.collective_angle.fget
    monkeypatch.setattr(
        operators.ProductOperator,
        "collective_angle",
        property(lambda op: real(op) + RationalPhase(1, op.d)),
    )
    assert verify_construction(c, oracle=False).certified
    with pytest.raises(CertificationError, match="collective angle"):
        verify_construction(c, oracle=True)


def test_exhaustive_oracle_disagreement_raises(monkeypatch):
    # the solver's verdict stands only if the enumeration returns the same
    # status and the same least witness: another status on an UNSAT and on
    # a SAT family, or another witness on the SAT family, stops certification
    unsat = method1(3, 4, 3)
    supporting, target = method1_operator_set(3, 6, 3)  # N a multiple of f
    sat = from_items(3, 6, 1, RationalPhase(1, 9), [*supporting, target], f=3)
    least = verify_construction(sat).hv_verdict.witness
    assert least == (0,) * 8 + (1, 0, 0, 1)
    forged = [
        (unsat, HVVerdict("SAT", (0,) * len(unsat._system.variables))),
        (sat, HVVerdict("UNSAT", None)),
        (sat, HVVerdict("SAT", least[:-1] + (2,))),
        (sat, HVVerdict("SAT", (0,) * len(least))),
    ]
    for c, verdict in forged:
        monkeypatch.setattr(constructions, "brute_force_solve", lambda system, v=verdict: v)
        with pytest.raises(
            CertificationError, match="Howell-basis solver and exhaustive enumeration disagree"
        ):
            verify_construction(c, oracle=True)
        assert not verify_construction(c, oracle=False).oracle_checked


def test_dense_oracle_skips_an_operator_off_the_grid():
    # X(1/9) x 1 x 1 x 1 has collective angle 1/9, off the 1/3 grid: not an
    # eigenoperator of the GHZ state, so the dense oracle must not compare
    # its image, while quantum_ok records the false claim of eigenphase 0
    base = method1(3, 4, 3)
    stray = ProductOperator(3, (RationalPhase(1, 9),) + (ZERO_PHASE,) * 3)
    c = from_items(
        3, 4, 1, base.phi_o, [*base.operators, (stray, ZERO_PHASE), base.target], f=3
    )
    cert = verify_construction(c, oracle=True)
    assert cert.oracle_checked
    assert not cert.quantum_ok and not cert.certified


def test_certificate_json_shape():
    cert = verify_construction(method2(3, 3))
    data = cert.to_json_dict()
    assert data["certified"] is True
    assert data["hv_status"] == "UNSAT"
    assert "hv_witness" not in data
    assert data["irreducible"] == [True, True, True]
    sat_cert = verify_construction(corrupted(method2(3, 3)))
    sat_data = sat_cert.to_json_dict()
    assert sat_data["quantum_ok"] is False


def test_check_genuine_dimension_examples():
    assert check_genuine_dimension(3, {ZERO_PHASE, RationalPhase(1, 9)})
    assert not check_genuine_dimension(3, {ZERO_PHASE, RationalPhase(1, 3)})
    assert check_genuine_dimension(
        5, {ZERO_PHASE, RationalPhase(1, 25), RationalPhase(3, 25)}
    )


def test_check_irreducible_examples():
    assert check_irreducible(method2(3, 3)) == (True, True, True)
    assert check_irreducible(method1(3, 4, 3)) == (True, True, True, True)


def reference_irreducible(c):
    """The per-qudit probe done literally: reduced operators, eigenphases
    on the (N-1)-qudit state, and the reduced system's verdict."""
    reduced_state = make_ghz(c.d, c.n - 1, 0)
    flags = []
    for k in range(c.n):
        reduced_items = []
        for op, _ in c.all_items():
            rop = ProductOperator(c.d, op.angles[:k] + op.angles[k + 1 :])
            lam = eigenvalue_exponent(reduced_state, rop)
            if lam is not None:
                reduced_items.append((rop, lam))
        flags.append(
            not reduced_items or satisfiable(system_from_operators(c.d, reduced_items))
        )
    return tuple(flags)


def widened(c, position, angles):
    """c's items with one more qudit at ``position``, carrying angles[i] on item i."""

    def widen(item, angle):
        op, exponent = item
        wide = op.angles[:position] + (angle,) + op.angles[position:]
        return ProductOperator(c.d, wide), exponent

    return [widen(item, a) for item, a in zip(c.all_items(), angles)]


def with_extra_qudit(c, position, angles):
    """c with one more qudit at ``position``, carrying angles[i] on item i."""
    items = widened(c, position, angles)
    return from_items(c.d, c.n + 1, c.method, c.phi_o, items, c.f, c.chain)


def test_check_irreducible_flags_an_idle_qudit():
    # a qudit at angle 0 on every operator can be deleted without losing
    # the contradiction, so its flag is False
    for c, expected in [
        (method1(3, 4, 3), (True,) * 4 + (False,)),
        (method2(4, 6), (True,) * 6 + (False,)),
    ]:
        padded = with_extra_qudit(c, c.n, [ZERO_PHASE] * c.operator_count())
        assert check_irreducible(padded) == expected
        assert reference_irreducible(padded) == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_check_irreducible_matches_reference_on_mixed_denominators(data):
    # an extra qudit that copies qudit `source` on some operators and has
    # angles over mixed denominators on the rest: deleting it gives back
    # the UNSAT base family, and deleting any other qudit leaves rows
    # whose reduced angle may fall off the 1/d grid; deleting `source`
    # keeps the contradiction when every operator was copied
    base = data.draw(
        st.sampled_from(
            [method1(2, 3, 2), method1(3, 4, 3), method2(4, 6), method3(5, 3)]
        )
    )
    d = base.d
    dens = st.sampled_from([1, 2, d, 2 * d, 3 * d, d * d, 5])
    source = data.draw(st.integers(0, base.n - 1))
    copied = data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    angles = [
        op.angles[source]
        if data.draw(st.floats(0, 1)) < copied
        else data.draw(st.builds(RationalPhase, st.integers(-60, 60), dens))
        for op, _ in base.all_items()
    ]
    position = data.draw(st.integers(0, base.n))
    c = with_extra_qudit(base, position, angles)
    flags = check_irreducible(c)
    assert flags == reference_irreducible(c)
    assert flags[position] is False


def test_check_irreducible_matches_reference_at_large_n():
    # every method at large N or long chains, against the literal probe
    cells = [(24, 40), (40, 39), (31, 29), (97, 5), (211, 5), (64, 63), (30, 50)]
    families = [witness_construction(classify(d, n)) for d, n in cells]
    for c in [method1(6, 5, 2), method2(4, 6), method3(5, 3)]:
        # supporting operators rotated by one place: the first operator,
        # whose labels the probe takes as references, is not X^N
        rotated = with_items(c, [*c.operators[1:], c.operators[0], c.target])
        assert set(rotated.operators[0][0].angles) != {ZERO_PHASE}
        families.append(rotated)
    for c in [method1(3, 4, 3), method2(4, 6), method1(6, 5, 2)]:
        # a copy of X^N rotated to 1/d on qudit 1 goes first, so label N,
        # the second operator's (1, 0), is the first variation: the probe
        # must not take it as a second reference on qudit 1
        items = c.all_items()
        families.append(
            with_items(c, [changed_at(items[0], 0, RationalPhase(1, c.d)), *items])
        )
    for c in families:
        assert check_irreducible(c) == reference_irreducible(c)
    assert check_irreducible(witness_construction(classify(60, 200))) == (True,) * 200


def with_items(c, items):
    """c's cell, method and meta with the items, read from JSON."""
    return from_items(c.d, c.n, c.method, c.phi_o, items, c.f, c.chain)


def changed_at(item, qudit, angle):
    op, exponent = item
    angles = op.angles[:qudit] + (angle,) + op.angles[qudit + 1 :]
    return ProductOperator(op.d, angles), exponent


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_check_irreducible_matches_reference_on_nearly_symmetric_families(data):
    # up to three times, one row of a cyclic or conjugate-pair family gets
    # another angle on one qudit, or a copy of a row is added with that
    # change (or none): the symmetries this breaks must not merge qudits
    base = data.draw(
        st.sampled_from(
            [
                method1(3, 4, 3),
                method1(6, 5, 2),
                method1(4, 7, 2),
                method1(2, 5, 2),
                method2(4, 6),
                method2(2, 6),
                method2(6, 4),
            ]
        )
    )
    items = base.all_items()
    used = {a for op, _ in items for a in op.angles}
    angles = sorted(used | {RationalPhase(1, base.d)}, key=str)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(items) - 1))
        angle = data.draw(st.sampled_from(angles))
        changed = changed_at(items[i], data.draw(st.integers(0, base.n - 1)), angle)
        if data.draw(st.booleans()):
            items[i] = changed
        else:
            items.insert(data.draw(st.integers(0, len(items) - 1)), changed)
    c = with_items(base, items)
    assert check_irreducible(c) == reference_irreducible(c)


def test_check_irreducible_solves_once_per_qudit_orbit(monkeypatch):
    # the methods' own families are decided by their witnesses with no
    # elimination; a qudit that no witness solves takes one elimination
    # per orbit
    solves = []

    def counted(*args):
        solves.append(args)
        return _howell_basis(*args)

    monkeypatch.setattr(constructions, "_howell_basis", counted)
    for c in [method1(40, 39, 2), method1(12, 7, 6), method2(6, 30), method3(97, 5)]:
        assert check_irreducible(c) == (True,) * c.n
    assert solves == []
    # a reduced system never reads a claimed eigenphase, so changing one
    # claim keeps the witness
    c = method2(6, 30)
    items = c.all_items()
    items[6] = (items[6][0], RationalPhase(1, 6))
    claimed = with_items(c, items)
    flags = check_irreducible(claimed)
    assert solves == []
    assert flags == reference_irreducible(claimed)
    # X^N rotated by 1/d on qudit 0 is kept at rhs 1 beside the pairs at
    # rhs 0, so y = 0 fails unless qudit 0 is deleted.  The other orbits
    # take one elimination each: the plain qudits 2..N-2, then N-1 and N
    rows = list(c.rows)
    rows[0] = (((0, c.common // c.d),), 0)
    moved = Construction(c.d, c.n, 2, c.phi_o, c.common, tuple(rows))
    assert check_irreducible(moved) == (True,) * c.n
    assert len(solves) == 3
    # one changed angle breaks the cyclic symmetry, and the flags differ
    c = method1(6, 5, 2)
    items = c.all_items()
    items[1] = changed_at(items[1], 3, RationalPhase(1, 12))
    perturbed = with_items(c, items)
    expected = (False, False, True, True, True)
    solves.clear()
    assert check_irreducible(perturbed) == reference_irreducible(perturbed) == expected
    assert len(solves) == 5  # five orbits, none of them witnessed
    # only the row (0, 1/4, 1/4, 0, 0) differs at qudits 3 and 4, and the
    # family lacks its swap, so that transposition is no symmetry
    z, q, h = ZERO_PHASE, RationalPhase(1, 4), RationalPhase(1, 2)
    rows = [
        (z, z, z, z, z),
        (q, q, z, z, z),
        (z, q, q, z, z),
        (z, z, q, q, z),
        (q, z, q, q, z),
        (z, z, z, z, h),
        (q, z, z, z, q),
    ]
    # the zero angle is tested for explicitly: RationalPhase defines no
    # __bool__, so every angle is truthy.  Row (1/4, 0, 1/4, 1/4, 0) has
    # total 3/4, so it is not an eigenoperator.
    items = [(ProductOperator(2, r), h if any(a != z for a in r) else z) for r in rows]
    uneven = from_items(2, 5, 1, q, items, 2)
    expected = (True, True, True, False, True)
    solves.clear()
    assert check_irreducible(uneven) == reference_irreducible(uneven) == expected
    assert len(solves) == 5


def solves_reduced(c, k, s, y):
    """Do S = s and the variations y, by label (qudit, exponent) and 0 where
    absent, solve every kept row of c's reduced system without qudit k?"""
    step = c.common // c.d
    for support, _ in c.rows:
        t = sum(e for q, e in support if q != k)
        lhs = s + sum(y.get(label, 0) for label in support if label[0] != k)
        if t % step == 0 and (lhs - t // step) % c.d:
            return False
    return True


def test_irreducibility_witnesses_solve_every_system_they_flag():
    # families of cyclic blocks at mostly exponent 1, some rows replaced
    # by others: where a witness is claimed, the witness itself, written
    # out from its closed form, solves each reduced system
    rng = random.Random(31)
    claimed = Counter()
    for _ in range(400):
        d = rng.choice([2, 3, 4, 6, 8, 9])
        f = rng.choice([f for f in range(1, d + 1) if d % f == 0])
        n = rng.randint(max(3, f + 1), f + 6)
        common = f * d
        rows = [((), 0)]
        for start in rng.sample(range(n), rng.randint(1, n)):
            qudits = sorted({(start + i) % n for i in range(f)})
            if rng.random() < 0.1:
                qudits = sorted(rng.sample(range(n), rng.choice([f, rng.randint(1, n)])))
            exponents = [1 if rng.random() < 0.8 else rng.randrange(1, common) for _ in qudits]
            rows.append((tuple(zip(qudits, exponents)), 0))
        c = Construction(d, n, 1, RationalPhase(1, common), common, tuple(rows))
        if constructions._blocks_witness_holds(d, n, c._encoding):
            claimed["blocks"] += 1
            for k in range(n):
                y = {(q, 1): 1 for q in range(n) if q != k and (q - k - 1) % n % f == 0}
                assert solves_reduced(c, k, 0, y), (rows, k)
        for k, flag in enumerate(constructions._common_rhs_witnesses(d, n, c._encoding)):
            if flag:
                claimed["common"] += 1
                assert any(solves_reduced(c, k, s, {}) for s in range(d)), (rows, k)
    assert claimed["blocks"] > 50 and claimed["common"] > 50


def test_irreducibility_witnesses_match_the_literal_probe():
    # every family with d, N <= 8 (auto and each explicit method, every
    # factor f for method 1) and 25 cells drawn from d, N <= 40, as built
    # and with their supporting rows reversed: the flags equal the literal
    # probe's, and the built families take no elimination
    cells = [(d, n) for d in range(2, 9) for n in range(3, 9)]
    rng = random.Random(31)
    cells += [(rng.randint(9, 40), rng.randint(3, 40)) for _ in range(25)]
    families = []
    for d, n in cells:
        families.append(witness_construction(classify(d, n)))
        families += [method1(d, n, f) for f in range(2, min(d, n - 1) + 1) if d % f == 0]
        families += [method2(d, n)] + ([method3(d, n)] if n < d else [])
    families = [c for c in families if isinstance(c, Construction)]
    for c in families:
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(
                constructions, "_howell_basis", lambda *args: pytest.fail("an elimination ran")
            )
            flags = check_irreducible(c)
        *supporting, target = c.rows
        reordered = Construction(
            c.d, c.n, c.method, c.phi_o, c.common, (*supporting[::-1], target), None, c.f
        )
        assert flags == check_irreducible(reordered) == reference_irreducible(c), c
    assert len(families) > 200


def label_path(c):
    """Certification as it reads the congruence system in the labels
    x(q, a): exact eigenphases, the solver's verdict on the full system,
    the literal irreducibility probe and the labels' angles per qudit."""
    system = system_from_operators(c.d, c.all_items())
    state = make_ghz(c.d, c.n, 0)
    quantum_ok = all(eigenvalue_exponent(state, op) == nu for op, nu in c.all_items())
    used = [set() for _ in range(c.n)]
    for label in system.variables:
        used[label.qudit - 1].add(label.angle)
    genuine = all(check_genuine_dimension(c.d, angles) for angles in used)
    return quantum_ok, solve(system), reference_irreducible(c), genuine


def variation_path(c):
    cert = verify_construction(c, oracle=False)
    return (
        cert.quantum_ok,
        cert.hv_verdict,
        cert.irreducible,
        cert.genuinely_d_dimensional,
    )


def test_variation_coordinates_match_the_label_system_on_every_small_cell():
    for d in range(2, 25):
        for n in range(3, 25):
            c = witness_construction(classify(d, n))
            assert variation_path(c) == label_path(c), (d, n)


def test_variation_coordinates_match_the_label_system_on_mutated_families():
    bases = [method1(3, 4, 3), method1(6, 5, 2), method2(4, 6), method2(6, 4)]
    bases += [method3(5, 3), method3(7, 4), method3(13, 5)]
    families = []
    for c in bases:
        items = c.all_items()
        for i in (0, len(items) // 2, len(items) - 1):
            # a wrong claim, still on the 1/d grid
            op, nu = items[i]
            wrong = (op, nu + RationalPhase(1, c.d))
            families.append(with_items(c, items[:i] + [wrong] + items[i + 1 :]))
        # the first operator is not X^N
        families.append(with_items(c, [*c.operators[1:], c.operators[0], c.target]))
        families.append(with_items(c, [changed_at(items[0], 0, RationalPhase(1, c.d)), *items]))
        # an idle extra qudit, first and last
        for position in (0, c.n):
            families.append(with_extra_qudit(c, position, [ZERO_PHASE] * len(items)))
    # SAT families: N a multiple of f in method 1, gcd(N, d) = 1 in method 2
    sat = [method1_operator_set(*a) for a in [(3, 6, 3), (4, 4, 2), (6, 6, 3), (4, 8, 2)]]
    sat += [method2_operator_set(*a) for a in [(5, 3), (7, 4), (9, 4), (5, 7)]]
    for supporting, target in sat:
        op = target[0]
        families.append(
            from_items(op.d, op.n, 1, RationalPhase(1, op.d), [*supporting, target])
        )
    statuses = Counter()
    for c in families:
        new, old = variation_path(c), label_path(c)
        assert new == old
        statuses[new[1].status] += 1
    assert statuses["SAT"] >= len(sat) and statuses["UNSAT"] > len(bases)


def test_unsat_certification_builds_no_label_system(monkeypatch):
    # the label system is built only for a SAT family's witness and for
    # the brute-force oracle
    from ghzcert import constructions

    def refuse(d, items):
        raise AssertionError("label system built")

    monkeypatch.setattr(constructions, "system_from_operators", refuse)
    start = time.perf_counter()
    cert = verify_construction(witness_construction(classify(6, 4001)), oracle=False)
    assert time.perf_counter() - start < 2
    assert cert.certified and all(cert.irreducible) and cert.genuinely_d_dimensional
    supporting, target = method1_operator_set(3, 6, 3)
    sat = from_items(3, 6, 1, RationalPhase(1, 9), [*supporting, target], 3)
    with pytest.raises(AssertionError, match="label system built"):
        verify_construction(sat, oracle=False)


def test_constructed_families_build_operators_only_when_read(monkeypatch):
    # a constructed family is its rows: construction, JSON output, reading
    # JSON and certification without the oracles build no operator; the
    # dense oracle and the operator view do
    def refuse(*args):
        raise AssertionError("operator built")

    with monkeypatch.context() as patched:
        patched.setattr(hidden_variables, "_with_rotations", refuse)
        small = [method1(12, 5, 2), method2(10, 200), method3(1000003, 3)]
        texts = [json.dumps(c.to_json_dict()) for c in small]
        read = [Construction.from_json_dict(json.loads(text)) for text in texts]
        assert read == small
        for c in small + read + [witness_construction(classify(6, 4001)), method2(10, 4000)]:
            cert = verify_construction(c, oracle=False)
            assert cert.certified and all(cert.irreducible) and cert.genuinely_d_dimensional
        for read in (
            lambda: verify_construction(method2(3, 3), oracle=True),
            lambda: method1(12, 5, 2).target,
        ):
            with pytest.raises(AssertionError, match="operator built"):
                read()
    for text in texts:
        assert text == json.dumps(Construction.from_json_dict(json.loads(text)).to_json_dict())


def test_method3_builds_no_congruence_system(monkeypatch):
    # the ladder's genuine-dimension check reads the operators' angles
    from ghzcert import constructions

    cells = [(5, 3), (7, 3), (5, 4), (31, 29)]
    expected = [method3(d, n).to_json_dict() for d, n in cells]

    def refuse(d, items):
        raise AssertionError("congruence system built during construction")

    monkeypatch.setattr(constructions, "system_from_operators", refuse)
    assert [method3(d, n).to_json_dict() for d, n in cells] == expected


def test_method3_large_dimension():
    # the binary chain grows with log d: at most five operators per bit
    # of m on top of the N + 2 conjugate-pair items and the target
    for d, n in [(211, 3), (211, 5)]:
        c = method3(d, n)
        assert c.operator_count() <= n + 3 + 5 * math.log2(d - n + 1)
        cert = verify_construction(c, oracle=False)
        assert cert.certified
        assert cert.genuinely_d_dimensional
        assert all(cert.irreducible)


def test_single_operator_construction_is_vacuous():
    x = ProductOperator(3, (ZERO_PHASE,) * 3)
    vacuous = from_items(3, 3, 1, RationalPhase(1, 9), [(x, ZERO_PHASE)])
    cert = verify_construction(vacuous)
    assert cert.hv_verdict.status == "SAT"  # nothing to contradict
    assert all(cert.irreducible)
    assert not cert.certified


def test_construction_built_from_rows_is_validated():
    # the constructor checks the cell and the rows, so no malformed family
    # reaches certification from the rows, a method or JSON
    c = method1(3, 4, 3)  # D = 9
    fields = dict(method=1, phi_o=c.phi_o, common=c.common, weights=c.weights, f=3)
    assert Construction(d=3, n=4, rows=c.rows, **fields) == c
    with pytest.raises(ValueError, match="at least three qudits"):
        Construction(d=3, n=2, rows=c.rows, **fields)
    with pytest.raises(ValueError, match="at least its target"):
        Construction(d=3, n=4, rows=(), **fields)
    for common in (0, -9, 10):
        with pytest.raises(ValueError, match=f"denominator {common} is not a positive"):
            dataclasses.replace(c, common=common)
    target = c.rows[-1]
    bad = {
        "claim 3 is outside": (target[0], 3),
        "claim -1 is outside": (target[0], -1),
        "exponent 0 is outside": (((0, 0),), 1),
        "exponent 9 is outside": (((0, 9),), 1),
        "qudit -1 is out of order": (((-1, 1),), 1),
        "qudit 4 is out of order": (((4, 1),), 1),
        "qudit 1 is out of order": (((1, 1), (1, 2)), 1),
        "qudit 0 is out of order": (((1, 1), (0, 2)), 1),
    }
    for message, row in bad.items():
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(c, rows=(*c.rows[:-1], row))


def test_off_grid_claim_is_rejected_by_every_check():
    # an eigenphase claim that is not a multiple of 1/d is malformed input:
    # no family holding one is read from JSON
    c = method1(3, 4, 3)
    data = c.to_json_dict()
    data["target"]["exponent"] = "1/9"
    with pytest.raises(ValueError, match="not a d-th root of unity"):
        Construction.from_json_dict(data)


def test_eigenphases_recomputed_not_trusted():
    # quantum_ok is an exact recomputation against the unrotated state
    c = method3(5, 3)
    state = make_ghz(5, 3, 0)
    for op, claimed in c.all_items():
        assert eigenvalue_exponent(state, op) == claimed


def test_construction_json_round_trip():
    for c in [method1(3, 4, 3), method2(4, 6), method3(7, 3)]:
        data = c.to_json_dict()
        rebuilt = Construction.from_json_dict(data)
        assert rebuilt == c
        assert verify_construction(rebuilt, oracle=False).certified
    assert method1(3, 4, 3).to_json_dict()["meta"] == {"f": 3}
    assert method3(7, 3).to_json_dict()["meta"] == {"chain": [2, -3, -2, 5]}


def test_json_reader_parses_each_distinct_angle_text_once():
    data = method3(7, 3).to_json_dict()
    c = Construction.from_json_dict(data)
    phases = [c.phi_o] + [p for op, nu in c.all_items() for p in (*op.angles, nu)]
    assert len({id(p) for p in phases}) == len({str(p) for p in phases}) < len(phases)
    # a non-canonical text seen only once, in the very last factor, is
    # still parsed and rejected
    base = method1(3, 4, 3).to_json_dict()
    for last in (lambda data: data["operators"][-1], lambda data: data["target"]):
        data = copy.deepcopy(base)
        last(data)["angles"][-1] = "2/18"
        with pytest.raises(PhaseParseError, match="2/18"):
            Construction.from_json_dict(data)


def test_verify_keeps_no_factor_cache_between_calls(monkeypatch):
    # the dense oracle builds each distinct angle's factor once per call,
    # and a second call on a fresh parse builds them all again
    calls = []
    real = operators.make_rotated_x
    monkeypatch.setattr(
        operators, "make_rotated_x", lambda d, phi: calls.append(phi) or real(d, phi)
    )
    data = method1(3, 4, 3).to_json_dict()
    counts = []
    for _ in range(2):
        c = Construction.from_json_dict(data)
        calls.clear()
        assert verify_construction(c).oracle_checked
        counts.append(len(calls))
    distinct = {a for op, _ in c.all_items() for a in op.angles}
    assert counts == [len(distinct)] * 2 and sorted(map(str, calls)) == sorted(map(str, distinct))


# ---------------------------------------------------------------------------
# proofs of unsolvability
# ---------------------------------------------------------------------------


def proof_families():
    """(d, D, rows, weights) of every witness with d, N <= 24, of method 1
    at every f that works on those cells, and of six larger witnesses."""
    for d in range(2, 25):
        for n in range(3, 25):
            yield (d, *constructions._witness_rows(classify(d, n)))
            for f in range(2, n):
                if d % f == 0 and n % f:
                    yield (d, *constructions._method1_rows(d, n, f))
    for d, n in [(24, 40), (40, 39), (97, 5), (4099, 3), (1000003, 3), (10**12 + 39, 3)]:
        yield (d, *constructions._witness_rows(classify(d, n)))


def test_builder_weights_prove_every_family_unsat():
    count = 0
    for d, common, rows, weights in proof_families():
        enc = constructions._encode_rows(common, rows)
        assert _proves_unsat(d, enc, weights), (d, len(rows))
        assert all(0 <= w < d for w in weights)
        count += 1
    assert count > 506 + 100


def dense_label_proof(d, n, common, rows, claims, weights):
    """w*A = 0 and w*b != 0 (mod d) on the family's system in the labels
    x(q, a), built from its operators and checked as dense integers."""
    items = constructions._operator_items(d, n, common, rows)
    items = [(op, RationalPhase(claim, d)) for (op, _), claim in zip(items, claims)]
    matrix, rhs = system_from_operators(d, items).dense_rows()
    if len(weights) != len(matrix):
        return False
    w = np.array(weights, dtype=object)
    return not (w @ np.array(matrix, dtype=object) % d).any() and (w @ rhs) % d != 0


def test_proof_checker_rejects_mutated_proofs():
    # on every witness with d, N <= 24: the target's weight moved onto the
    # row before it, one claim shifted by one so that the system becomes
    # solvable, the weights scaled until they annihilate the claims, and
    # the weights of cell (d+1, N).  The first three never prove anything;
    # the fourth does only where it is a proof in the labels too
    rejected = Counter()
    for d in range(2, 25):
        for n in range(3, 25):
            cell = classify(d, n)
            common, rows, weights = constructions._witness_rows(cell)
            enc = constructions._encode_rows(common, rows)
            assert dense_label_proof(d, n, common, rows, enc.claims, weights)
            moved = weights[:-2] + [(weights[-2] + weights[-1]) % d, 0]
            claims = list(enc.claims)
            if cell.regime == 1:  # X^N at 1/d: S = 1 and every block then holds
                claims[0] += 1
            else:  # the target at 0: every claim 0
                claims[-1] -= 1
            shifted = dataclasses.replace(enc, claims=[c % d for c in claims])
            total = sum(w * c for w, c in zip(weights, enc.claims))
            scaled = [w * (d // math.gcd(total, d)) % d for w in weights]
            other = constructions._witness_rows(classify(d + 1, n))[2]
            for kind, mutant, w in [
                ("moved", enc, moved),
                ("claim", shifted, weights),
                ("scaled", enc, scaled),
                ("other", enc, other),
            ]:
                verdict = _proves_unsat(d, mutant, w)
                assert verdict == dense_label_proof(d, n, common, rows, mutant.claims, w)
                rejected[kind] += not verdict
    assert rejected["moved"] == rejected["claim"] == rejected["scaled"] == 506
    assert rejected["other"] > 450  # 16 of these cells share a valid proof


def test_verified_plane_decides_with_no_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an elimination ran in the UNSAT decision")

    monkeypatch.setattr(constructions, "_howell_basis", refuse)
    monkeypatch.setattr(hidden_variables, "_howell_basis", refuse)
    assert sum(1 for _ in classify_plane(24, 24, verify=True)) == 506


def test_witness_families_certify_with_no_elimination(monkeypatch):
    # every witness family of the 48x48 plane: proofs decide UNSAT and
    # witnesses set every irreducibility flag
    def refuse(*args, **kwargs):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(constructions, "_howell_basis", refuse)
    monkeypatch.setattr(hidden_variables, "_howell_basis", refuse)
    for cell in classify_plane(48, 48):
        cert = verify_construction(witness_construction(cell), oracle=False)
        assert cert.certified and all(cert.irreducible) and cert.genuinely_d_dimensional


def test_certificates_decide_unsat_by_their_methods_weights(monkeypatch):
    # a constructed family and the same family read back from JSON: the
    # method's weights decide UNSAT and witnesses the irreducibility
    # flags, so no elimination runs.  A method-3 family read back with its
    # supporting operators reversed takes one tagged elimination for its
    # verdict, and its flags still need none
    cells = [(12, 5), (9, 6), (7, 3), (31, 29), (97, 5), (24, 40)]
    families = [witness_construction(classify(d, n)) for d, n in cells]
    families += [Construction.from_json_dict(c.to_json_dict()) for c in families]
    calls = []
    real = constructions._howell_basis
    monkeypatch.setattr(
        constructions, "_howell_basis", lambda *args: calls.append(args) or real(*args)
    )
    for c in families:
        cert = verify_construction(c, oracle=False)
        assert cert.certified and all(cert.irreducible)
    assert calls == []
    c = method3(97, 5)
    reordered = with_items(c, [*c.operators[::-1], c.target])
    cert = verify_construction(reordered, oracle=False)
    assert cert.certified and all(cert.irreducible)
    assert len(calls) == 1 and calls[0][2][0].get(-2) == 1  # the tagged elimination


def test_unsat_fallback_proves_families_whose_method_gives_no_proof(monkeypatch):
    # supporting operators permuted, or another method named: where the
    # named method's weights do not check on the family, one tagged
    # elimination finds weights, which must pass the same check.  Methods
    # 1 and 2 find each row's weight by its support and claim, so only
    # their permuted families keep a proof.  Either way the certificate is
    # the one of the family as built
    cells = [(12, 5), (9, 6), (7, 3), (13, 5)]
    bases = [witness_construction(classify(d, n)) for d, n in cells]
    tagged = []
    real = constructions._unsat_weights
    monkeypatch.setattr(
        constructions, "_unsat_weights", lambda d, enc: tagged.append(d) or real(d, enc)
    )
    for c in bases:
        expected = verify_construction(c).to_json_dict()
        ops = c.operators
        mutants = [
            (True, with_items(c, [*ops[1:], ops[0], c.target])),
            (True, with_items(c, [*ops[::-1], c.target])),
        ]
        for method in {1, 2, 3, 7} - {c.method}:
            mutants.append((False, dataclasses.replace(c, method=method)))
        for permuted, mutant in mutants:
            mutant = Construction.from_json_dict(json.loads(json.dumps(mutant.to_json_dict())))
            hint = constructions._method_hint(mutant)
            hinted = hint is not None and _proves_unsat(c.d, mutant._encoding, hint)
            assert hinted == (permuted and c.method != 3)
            tagged.clear()
            cert = verify_construction(mutant)
            assert tagged == ([] if hinted else [c.d])
            assert cert.to_json_dict() == {**expected, "construction": mutant.to_json_dict()}


def test_reordered_method1_and_method2_families_keep_their_proofs(monkeypatch):
    # a method-1 or method-2 family read from JSON with its rows reversed
    # or shuffled, target included: each row takes the weight of the same
    # row of the method, so no tagged elimination runs
    def refuse(d, enc):
        raise AssertionError("the tagged elimination ran")

    monkeypatch.setattr(constructions, "_unsat_weights", refuse)
    rng = random.Random(28)
    bases = [method1(12, 5, 2), method1(6, 7, 3), method1(4, 9, 2), method2(9, 6)]
    bases += [method2(4, 6), method2(10, 400)]
    for c in bases:
        built = c.all_items()
        shuffled = list(range(len(built)))
        rng.shuffle(shuffled)
        for order in (shuffled, shuffled[::-1], list(range(len(built)))[::-1]):
            items = [built[i] for i in order]
            data = items_json(c.d, c.n, c.method, c.phi_o, items, c.f, c.chain)
            with monkeypatch.context() as patched:  # the hint waits for certification
                for name in ("_method1_rows", "_method2_rows"):
                    patched.setattr(constructions, name, lambda *args: pytest.fail("hint built"))
                mutant = Construction.from_json_dict(data)
            assert constructions._method_hint(mutant) == tuple(c.weights[i] for i in order)
            assert verify_construction(mutant, oracle=c.n < 10).certified


def test_unsat_fallback_rejects_weights_that_fail_the_check(monkeypatch):
    c = method2(4, 6)
    c = dataclasses.replace(c, weights=(0,) * c.operator_count())  # it proves nothing
    monkeypatch.setattr(constructions, "_unsat_weights", lambda d, enc: [1] * len(enc.rows))
    with pytest.raises(CertificationError, match="proof of unsolvability fails its check"):
        verify_construction(c, oracle=False)
