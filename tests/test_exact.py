import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cospart import exact
from cospart.exact import (DpBudgetError, InstanceTooLargeError, analytic_spectrum,
                           decide_bruteforce, decide_dp, decide_meet_in_middle,
                           find_partition, ideal_dc, solve_exact)
from cospart.instances import CpiInstance, parse_instance
from cospart.reductions import CnfFormula, sat_to_partition
from conftest import tracemalloc_peak


def test_decide_examples():
    assert decide_bruteforce(parse_instance("3 2 5")) is True
    assert decide_bruteforce(parse_instance("3 6 4")) is False
    assert decide_bruteforce(parse_instance("1")) is False
    assert decide_dp(parse_instance("3 2 5")) is True
    assert decide_dp(parse_instance("10 90 10 40")) is False
    assert decide_dp(parse_instance("30 90 20 40")) is True


def test_dp_equals_bruteforce_exhaustive_small():
    for n in range(1, 5):
        for values in itertools.product(range(1, 9), repeat=n):
            inst = CpiInstance(values)
            assert decide_dp(inst) == decide_bruteforce(inst), values


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=12))
def test_dp_equals_bruteforce_random(values):
    inst = CpiInstance(tuple(values))
    assert decide_dp(inst) == decide_bruteforce(inst)


def test_thousand_random_agreement():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randint(1, 12)
        inst = CpiInstance(tuple(rng.randint(1, 99) for _ in range(n)))
        assert decide_dp(inst) == decide_bruteforce(inst) == decide_meet_in_middle(inst)


def test_guards():
    big = CpiInstance(tuple([1] * 31))
    with pytest.raises(InstanceTooLargeError):
        decide_bruteforce(big)
    with pytest.raises(DpBudgetError):
        decide_dp(parse_instance("1000000 1000000"), max_cells=1000)
    assert solve_exact(parse_instance("1000000 1000000"), max_cells=1000) is True


def _balances(inst, witness):
    return 2 * sum(inst.values[i - 1] for i in witness.subset) == inst.total


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=12))
def test_exact_routes_agree(values):
    inst = CpiInstance(tuple(values))
    answer = decide_bruteforce(inst)
    assert decide_dp(inst) == decide_meet_in_middle(inst) == solve_exact(inst) == answer
    assert (ideal_dc(inst) > 0) == answer
    balanced = exact._zero_sign_count(inst.values)
    assert ideal_dc(inst) * 2**inst.n == balanced == analytic_spectrum(inst).dc * 2**inst.n


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=1, max_value=2**40), min_size=1, max_size=13),
       st.booleans())
def test_exact_routes_agree_large_magnitudes(values, balance):
    # random large values almost never balance: append the value that
    # balances the alternate positions against the others
    gap = abs(sum(values[::2]) - sum(values[1::2]))
    inst = CpiInstance(tuple(values) + ((gap,) if balance and gap else ()))
    answer = decide_bruteforce(inst)
    assert decide_meet_in_middle(inst) == solve_exact(inst) == answer
    assert ideal_dc(inst) * 2**inst.n == exact._zero_sign_count(inst.values)
    w = find_partition(inst)
    assert (w is not None) == answer
    assert w is None or _balances(inst, w)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=1, max_value=64), max_size=12))
def test_subset_sum_kernel(values):
    values = tuple(values)
    counts = Counter(sum(c) for r in range(len(values) + 1)
                     for c in itertools.combinations(values, r))
    assert exact._subset_sums(values).tolist() == sorted(counts)
    sums, tags = exact._tagged_subset_sums(values, counted=True)
    assert sums.tolist() == sorted(counts)
    assert tags.tolist() == [counts[x] for x in sorted(counts)]
    assert int(tags.sum()) == 2 ** len(values)
    sums, masks = exact._tagged_subset_sums(values, counted=False)
    assert sums.tolist() == sorted(counts)
    for x, m in zip(sums.tolist(), masks.tolist()):
        assert sum(v for i, v in enumerate(values) if m >> i & 1) == x


def _refuse(name):
    def refuse(*_, **__):
        raise AssertionError(f"{name} must not be called")
    return refuse


def test_bruteforce_independent_of_kernel(monkeypatch):
    monkeypatch.setattr(exact, "_subset_sums", _refuse("_subset_sums"))
    monkeypatch.setattr(exact, "_tagged_subset_sums", _refuse("_tagged_subset_sums"))
    assert decide_bruteforce(parse_instance("3 2 5")) is True
    assert decide_bruteforce(parse_instance("3 6 4")) is False
    assert exact._zero_sign_count((1,) * 24) == 2704156  # C(24, 12)


# A YES instance with n = 24 and total 1.82e8: its 9.1e7 reachability cells
# fit the 1e8 budget, but MIM merges only 2**12 sums per half
_WIDE = CpiInstance(tuple(7_500_000 + 7919 * i for i in range(24)))


def test_solve_exact_dispatch_by_cost(monkeypatch):
    assert exact._dp_budget_cells(_WIDE) <= 10**8
    monkeypatch.setattr(exact, "decide_dp", _refuse("decide_dp"))
    assert solve_exact(_WIDE) is True
    # DP is cheaper on 40 ones but over a 10-cell budget
    assert solve_exact(CpiInstance((1,) * 40), max_cells=10) is True
    monkeypatch.undo()
    monkeypatch.setattr(exact, "decide_meet_in_middle", _refuse("decide_meet_in_middle"))
    assert solve_exact(CpiInstance((1,) * 40)) is True
    assert solve_exact(CpiInstance((1,) * 41)) is False


def test_find_partition_memory_bounded():
    w, peak = tracemalloc_peak(lambda: find_partition(_WIDE))
    assert peak < 32 * 2**20
    assert w is not None and _balances(_WIDE, w)


@pytest.mark.parametrize("last", [400000 + 18 * 49, 400000 + 18 * 50])
def test_find_partition_dp_backtrack_memory_bounded(last):
    # n = 50 and total/2 ~ 1e7 take the DP route: 51 masks of 1.25 MB each
    # would peak near 54 MB; checkpoints every 8th mask keep about 2*sqrt(n)
    inst = CpiInstance(tuple(400000 + 18 * i for i in range(49)) + (last,))
    assert exact._dp_is_cheaper(inst, 10**8)
    w, peak = tracemalloc_peak(lambda: find_partition(inst))
    assert peak < 24e6
    if last == 400000 + 18 * 49:  # every 25-subset misses total/2 by 9 mod 18
        assert w is None
    else:
        assert w is not None and _balances(inst, w)


def test_find_partition_on_sat_reduction():
    f = CnfFormula(6, ((1, 2, 3), (-1, 2, 4), (-2, 3, 5), (-3, 4, 6), (1, -4, 5),
                       (2, -5, 6), (-1, 3, -6), (1, -2, 4), (3, 5, -6), (-3, 4, 6)))
    inst, _ = sat_to_partition(f)
    assert inst.n == 34
    w = find_partition(inst)
    assert w is not None and _balances(inst, w)


def test_find_partition_witness_balances():
    inst = parse_instance("3 2 5")
    w = find_partition(inst)
    inside = sum(inst.values[i - 1] for i in w.subset)
    assert inside * 2 == inst.total
    assert find_partition(parse_instance("3 6 4")) is None


def test_find_partition_pair():
    w = find_partition(parse_instance("1 1"))
    assert len(w.subset) == 1


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=10))
def test_find_partition_matches_decide(values):
    inst = CpiInstance(tuple(values))
    w = find_partition(inst)
    if decide_dp(inst):
        assert w is not None
        inside = sum(inst.values[i - 1] for i in w.subset)
        assert inside * 2 == inst.total
    else:
        assert w is None


def test_ideal_dc_examples():
    assert ideal_dc(parse_instance("3 2 5")) == Fraction(1, 4)
    assert ideal_dc(parse_instance("2 3")) == 0
    assert ideal_dc(parse_instance("1 1")) == Fraction(1, 2)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=10))
def test_ideal_dc_sign_iff_decision(values):
    inst = CpiInstance(tuple(values))
    assert (ideal_dc(inst) > 0) == decide_bruteforce(inst)


def test_spectrum_examples():
    s = analytic_spectrum(parse_instance("2 3"))
    assert sorted(s.lines) == [-5, -1, 1, 5]
    assert all(a == Fraction(1, 4) for a in s.lines.values())

    s = analytic_spectrum(parse_instance("2 3 5"))
    assert sorted(s.lines) == [-10, -6, -4, 0, 4, 6, 10]

    s = analytic_spectrum(parse_instance("1"))
    assert sorted(s.lines) == [-1, 1]
    assert all(a == Fraction(1, 2) for a in s.lines.values())


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=10))
def test_spectrum_properties(values):
    inst = CpiInstance(tuple(values))
    s = analytic_spectrum(inst)
    # symmetric, dc equals ideal_dc exactly, max line position = sum
    for f, a in s.lines.items():
        assert s.lines[-f] == a
    assert s.dc == ideal_dc(inst)
    assert max(s.lines) == inst.total
    # amplitudes sum to 1 (every sign vector lands somewhere)
    assert sum(s.lines.values()) == 1


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=8),
       st.randoms(use_true_random=False))
def test_spectrum_power_permutation_invariant(values, rnd):
    inst = CpiInstance(tuple(values))
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert analytic_spectrum(inst).total_power() == pytest.approx(
        analytic_spectrum(CpiInstance(tuple(shuffled))).total_power())


def test_time_domain_cross_check():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(1, 12)
        inst = CpiInstance(tuple(rng.randint(1, 50) for _ in range(n)))
        # rectangle rule over one period is exact for band-limited signals
        # once the sample count clears every harmonic
        m = 2 * inst.total + 1
        t = np.arange(m) * (2 * np.pi / m)
        prod = np.ones_like(t)
        for a in inst.values:
            prod *= np.cos(a * t)
        assert abs(float(np.mean(prod)) - float(ideal_dc(inst))) < 1e-9


def test_spectrum_csv_sorted():
    text = analytic_spectrum(parse_instance("2 3")).to_csv(units="instance")
    lines = text.strip().splitlines()
    assert lines[0] == "# units=instance"
    assert lines[1] == "frequency,amplitude"
    freqs = [float(row.split(",")[0]) for row in lines[2:]]
    assert freqs == sorted(freqs)
