import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cospart import exact, reductions
from cospart.calibration import decide_analog
from cospart.dsp import FilterSpec
from cospart.exact import (DpBudgetError, InstanceTooLargeError, analytic_spectrum,
                           decide_bruteforce, decide_dp, decide_meet_in_middle, ideal_dc,
                           solve_exact)
from cospart.instances import CpiInstance, parse_instance
from cospart.pipeline import NonidealityConfig
from cospart.reductions import (CnfFormula, OracleBackend, evaluate, extract_witness,
                                sat_to_partition)
from conftest import base6_reduction, tracemalloc_peak


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


def test_guards(monkeypatch):
    big = CpiInstance(tuple([1] * 31))
    with pytest.raises(InstanceTooLargeError):
        decide_bruteforce(big)
    monkeypatch.setattr(exact, "DP_MAX_CELLS", 1000)
    with pytest.raises(DpBudgetError):
        decide_dp(parse_instance("1000000 1000000"))
    assert solve_exact(parse_instance("1000000 1000000")) is True


def test_dp_bounds_the_words_it_shifts(monkeypatch):
    # 2,000 values whose 99,452,031 cells fit the budget: their 2,000 shifts
    # would touch about 3.1e9 words, refused before the first one
    many = CpiInstance((99_452,) * 1999 + (99_512,))
    assert exact._dp_budget_cells(many) <= exact.DP_MAX_CELLS
    with pytest.raises(DpBudgetError, match="3107875968 words, exceed the budget of 100000000"):
        solve_exact(many)
    # up to n = 64 the shifts touch no more words than the table has cells
    monkeypatch.setattr(exact, "DP_MAX_CELLS", 1000)
    assert exact._dp_budget_cells(CpiInstance((31,) * 62 + (38, 38))) == 1000
    assert decide_dp(CpiInstance((31,) * 62 + (38, 38))) is True
    with pytest.raises(DpBudgetError, match="65 shifts of 986 reachability cells"):
        decide_dp(CpiInstance((30,) * 63 + (46, 34)))


def test_parity_decides_before_the_guards(monkeypatch):
    # an odd total has no balanced split, however large n or the total
    odd = CpiInstance((1000000007,) * 44 + (1,))
    assert ideal_dc(odd) == 0
    assert decide_meet_in_middle(odd) is False
    assert solve_exact(odd) is False
    monkeypatch.setattr(exact, "DP_MAX_CELLS", 1000)
    assert decide_dp(odd) is False and decide_dp(parse_instance("1000001 1000000")) is False
    with pytest.raises(InstanceTooLargeError):  # the independent route keeps its guard
        decide_bruteforce(odd)


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=12))
def test_exact_routes_agree(values):
    inst = CpiInstance(tuple(values))
    answer = decide_bruteforce(inst)
    assert decide_dp(inst) == decide_meet_in_middle(inst) == solve_exact(inst) == answer
    assert (ideal_dc(inst) > 0) == answer
    balanced = exact._zero_sign_count(inst.values)
    assert ideal_dc(inst) * 2**inst.n == balanced == analytic_spectrum(inst).dc * 2**inst.n
    if inst.n <= 10:  # the chain `decide --oracle analog-ideal` simulates
        chain = OracleBackend("analog-ideal", NonidealityConfig(), FilterSpec("brickwall", 5000.0))
        d = decide_analog(inst, chain.cfg, chain.fspec, chain.threshold)
        assert (d.answer == "YES") == answer
        assert abs(d.dc_measured - float(ideal_dc(inst))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=64), min_size=26, max_size=30))
def test_exact_routes_agree_past_the_table(values):
    # halves of 13-15 values, few of them repeated, pass the 4096-sum table head and merge
    inst = CpiInstance(tuple(values))
    counts = np.zeros(inst.total + 1, dtype=np.int64)  # subsets by their sum
    counts[0] = 1
    for a in inst.values:
        counts[a:] = counts[a:] + counts[:-a]
    balanced = 0 if inst.total % 2 else int(counts[inst.total // 2])
    assert ideal_dc(inst) * 2**inst.n == balanced
    assert decide_meet_in_middle(inst) == decide_dp(inst) == (balanced > 0)


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


@settings(max_examples=200)
@given(st.one_of(st.lists(st.integers(min_value=1, max_value=4), max_size=16),
                 st.lists(st.integers(min_value=1, max_value=64), max_size=16),
                 st.lists(st.integers(min_value=1, max_value=2**40), max_size=16)))
# SAT-like: pairs below singles, each value above the span of the sums before
# it, so the 3**5 * 2**4 table and the two later values need no sort
@example([1, 1, 3, 3, 9, 9, 27, 27, 81, 81, 243, 486, 972, 1944, 3888, 7776])
# the same but for a last value equal to the span of the sums before it
@example([1, 1, 3, 3, 9, 9, 27, 27, 81, 81, 243, 486, 972, 1944, 3888, 7775])
# eight overlapping pairs: a tagged table of seven sorted, then two merges
@example([1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8])
def test_subset_sum_kernel(values):
    # up to 16 values: groups of copies, past the 4096-sum table head, merges
    # of colliding (values <= 4) and of distinct (wide) sums
    values = tuple(values)
    masks = np.arange(2 ** len(values))
    every = ((masks[:, None] >> np.arange(len(values))) & 1) @ np.array(values, dtype=np.int64)
    distinct, counts = np.unique(every, return_counts=True)
    groups = exact._groups(values)
    for order in (groups, groups[::-1]):  # any order of the groups lists the same sums
        sums, none = exact._subset_sums(order)
        assert none is None and sums.tolist() == distinct.tolist()
        sums, tally = exact._subset_sums(order, counts=True)
        assert sums.tolist() == distinct.tolist()
        # a count array exactly when some sum stands for two or more subsets
        assert (tally is None) == (counts == 1).all()
        assert tally is None or tally.tolist() == counts.tolist()


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=1, max_value=8), max_size=14),
       st.lists(st.integers(min_value=1, max_value=8), max_size=14),
       st.integers(min_value=0, max_value=112))
@example([1, 2, 4, 8], [3, 6, 12], 16)  # neither half has a count array
@example([1, 2, 4, 8], [1, 1, 2, 3], 9)  # only one half has one
@example([1, 1, 2, 3], [1, 2, 4, 8], 9)
def test_pairs_count_every_pair_of_subsets(lo, hi, target):
    halves = [exact._subset_sums(exact._groups(half), counts=True) for half in (lo, hi)]
    (x, c_x), (y, c_y) = ((sums.tolist(), [1] * len(sums) if c is None else c.tolist())
                          for sums, c in halves)
    want = sum(c_x[i] * c_y[j] for i in range(len(x)) for j in range(len(y))
               if x[i] + y[j] == target)
    assert exact._pairs(*halves, target) == want
    assert exact._pairs(*halves[::-1], target) == want


def _mim_draws():
    """n = 14..34, colliding to wide values, and six random 3-CNFs of 6 variables."""
    rng = random.Random(15)
    instances = []
    for k in range(42):
        n = 14 + k % 21
        mag = (4, 16, 64, 10**6, 2**40, 10**6)[k % 6]
        values = [rng.randint(1, mag) for _ in range(n)]
        if mag > 64 and k % 2:  # the last value balances the alternate others
            values[-1] = abs(sum(values[:-1:2]) - sum(values[1:-1:2])) or 1
        instances.append(CpiInstance(tuple(values)))
    formulas = [CnfFormula(6, tuple(tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, 7), 3))
                                    for _ in range(10)))
                for _ in range(6)]
    return instances, formulas


def _mim_corpus():
    """`_mim_draws`' instances, then the SAT reductions of its formulas."""
    instances, formulas = _mim_draws()
    return instances + [sat_to_partition(f) for f in formulas]


# the MIM route's answers over `_mim_corpus`
_MIM_ANSWERS = (
    True, True, True, True, False, True,
    False, False, False, True, False, True,
    True, True, False, True, False, True,
    True, False, True, True, False, True,
    True, True, False, True, False, True,
    True, True, True, True, False, True,
    True, False, False, True, False, True,
    True, True, True, True, True, True,
)


def test_mim_answers_pinned():
    assert tuple(decide_meet_in_middle(inst) for inst in _mim_corpus()) == _MIM_ANSWERS


# multisets that share many equal values, and ones whose largest value is at
# least half the total (exactly half when ``extra`` is 0)
_DUPLICATES = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=16)
_DOMINANT = st.builds(lambda rest, extra: [sum(rest) + extra] + rest,
                      st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=10),
                      st.integers(min_value=0, max_value=3))


@settings(max_examples=300)
@given(st.one_of(_DUPLICATES, _DOMINANT))
def test_pinned_split_agrees_with_enumeration(values):
    inst = CpiInstance(tuple(values))
    answer = decide_bruteforce(inst)
    assert decide_meet_in_middle(inst) == solve_exact(inst) == answer
    assert ideal_dc(inst) * 2**inst.n == exact._zero_sign_count(inst.values)


def _sat_reductions(build=sat_to_partition):
    """The reductions of `_mim_draws`' formulas, by ``build``."""
    return [build(f) for f in _mim_draws()[1]]


@pytest.mark.parametrize("build, n, bound", [(base6_reduction, 34, 15_552),
                                              (sat_to_partition, 27, 4096)])
def test_pinned_halves_of_sat_reductions(build, n, bound):
    # base 6: the pinned padding number drops its partner; twelve literal
    # numbers and ten slack pairs split into six literals and five pairs a
    # side, 2**6 * 3**5 sums (split at position n/2, the left half listed
    # 73,728).  Signed, the pad pinned: five slack pairs and three variable
    # numbers a side, 3**5 * 2**3 = 1,944 sums
    for inst in _sat_reductions(build):
        assert inst.n == n
        lo, hi, _ = exact._halves(inst)
        assert max(len(exact._subset_sums(h)[0]) for h in (lo, hi)) <= bound


@pytest.mark.parametrize("build, route, bound_kb", [
    (base6_reduction, decide_meet_in_middle, 768), (base6_reduction, ideal_dc, 1536),
    (sat_to_partition, decide_meet_in_middle, 128), (sat_to_partition, ideal_dc, 320)])
def test_mim_peak_memory_on_sat_reductions(build, route, bound_kb):
    # with numpy 2.4 the peaks are 486 KB and 866 KB in base 6 (split at
    # position n/2 they were 1,572 KB and 3,781 KB), 65 KB and 187 KB signed
    for inst in _sat_reductions(build):
        tracemalloc.start()
        try:
            route(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_kb * 1024, (route.__name__, peak)


def test_ideal_dc_peak_memory_on_distinct_sums():
    # 24 values in 1e7..1e8: both halves list distinct sums, so neither has a count array
    rng = random.Random(24)
    values = [rng.randint(10**7, 10**8) for _ in range(24)]
    values[-1] += sum(values) % 2  # an even total, so that the pairs are counted
    inst = CpiInstance(tuple(values))
    lo, hi, _ = exact._halves(inst)
    halves = [exact._subset_sums(half, counts=True) for half in (lo, hi)]
    assert [(len(sums), tally) for sums, tally in halves] == [(4096, None), (2048, None)]
    # at most 4 int64 words per sum of the larger half, 131 KB; with numpy 2.4 the
    # peak is 105 KB, and 151 KB with count arrays of ones and paired indices
    _, peak = tracemalloc_peak(lambda: ideal_dc(inst))
    assert peak <= 4 * 8 * 4096, peak


@settings(max_examples=300)
@example(list(range(44)))  # 43 distinct values besides the pinned one: 2**22 and 2**21
@given(st.integers(min_value=1, max_value=43).flatmap(
    lambda k: st.lists(st.integers(min_value=0, max_value=k), min_size=1, max_size=exact.MAX_MIM_N)))
def test_halves_keep_the_mim_guard_promise(labels):
    # values of one magnitude, so none exceeds the target once n >= 4; the
    # alphabet size k sets how many repeat
    inst = CpiInstance(tuple(1000 + label for label in labels))
    lo, hi, _ = exact._halves(inst)
    assert not {a for a, _ in lo} & {a for a, _ in hi}  # equal values stay in one half
    for half in (lo, hi):
        assert len({a for a, _ in half}) == len(half)  # one group per value
        bound = 1
        for _, c in half:
            bound *= c + 1
        # at most 2**ceil(n/2) sums: `_dp_is_cheaper`'s estimate bounds the halves
        assert bound <= 2 ** ((inst.n + 1) // 2) <= 2**22


def _partitions(m, most=None):
    """The integer partitions of m, each as its parts in falling order."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, most or m), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def test_halves_bound_every_multiplicity_pattern():
    # the n - 1 values besides the pinned one, split into groups by copy
    # count in every way: 35,470 patterns for n = 2..32 (up to `MAX_MIM_N`,
    # 376,325 patterns keep the same bound)
    patterns = 0
    for n in range(2, 33):
        for copies in _partitions(n - 1):
            values = tuple(1000 + i for i, c in enumerate(copies) for _ in range(c))
            inst = CpiInstance(values + (1000 + len(copies),))  # the pinned value
            lo, hi, _ = exact._halves(inst)
            assert n < 5 or sum(c for _, c in lo + hi) == n - 1  # none drops out
            for half in (lo, hi):
                # at most 2**ceil(n/2) sums, as `MAX_MIM_N` and `_dp_is_cheaper` assume
                assert math.prod(c + 1 for _, c in half) <= 2 ** ((n + 1) // 2), copies
            patterns += 1
    assert patterns == 35_470


def _refuse(name):
    def refuse(*_, **__):
        raise AssertionError(f"{name} must not be called")
    return refuse


def test_bruteforce_independent_of_kernel(monkeypatch):
    monkeypatch.setattr(exact, "_subset_sums", _refuse("_subset_sums"))
    assert decide_bruteforce(parse_instance("3 2 5")) is True
    assert decide_bruteforce(parse_instance("3 6 4")) is False
    assert exact._zero_sign_count((1,) * 24) == 2704156  # C(24, 12)


def test_sat_reductions_are_listed_without_a_sort(monkeypatch):
    # base 6's slack pairs lie below its literals, one literal of each
    # variable a side: every value exceeds the span of the sums before it
    monkeypatch.setattr(exact, "_sort_distinct", _refuse("_sort_distinct"))
    for inst in _sat_reductions(base6_reduction):
        assert decide_meet_in_middle(inst) is True
        assert ideal_dc(inst) > 0


class _CountingOracle:
    """A SAT oracle that answers by MIM and checks the counted DC against it."""

    def decide(self, inst):
        yes = decide_meet_in_middle(inst)
        assert (ideal_dc(inst) > 0) == yes
        return yes


# three distinct variables of six, each negated or not, as the `sat-witness` formulas are drawn
_CLAUSE = st.builds(lambda vs, signs: tuple(v if s else -v for v, s in zip(vs, signs)),
                    st.lists(st.integers(min_value=1, max_value=6), min_size=3, max_size=3,
                             unique=True),
                    st.lists(st.booleans(), min_size=3, max_size=3))


@settings(max_examples=40, deadline=None)
@given(st.lists(_CLAUSE, min_size=1, max_size=10))
def test_every_reduction_of_witness_extraction_is_listed_without_a_sort(clauses):
    # under base 6 the two literals of a variable are adjacent in value and
    # land in different halves, whatever the simplified formula's slack pairs
    formula = CnfFormula(6, tuple(clauses))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reductions, "sat_to_partition", base6_reduction)
        mp.setattr(exact, "_sort_distinct", _refuse("_sort_distinct"))
        assignment = extract_witness(formula, _CountingOracle())
    assert (assignment is not None) == any(
        evaluate(formula, bits) for bits in itertools.product((False, True), repeat=6))


# A YES instance with n = 24 and total 1.82e8: its 9.1e7 reachability cells
# fit the 1e8 budget, but MIM merges only 2**12 sums per half
_WIDE = CpiInstance(tuple(7_500_000 + 7919 * i for i in range(24)))


def test_solve_exact_dispatch_by_cost(monkeypatch):
    assert exact._dp_budget_cells(_WIDE) <= 10**8
    monkeypatch.setattr(exact, "decide_dp", _refuse("decide_dp"))
    assert solve_exact(_WIDE) is True
    # DP is cheaper on 40 ones but over a 10-cell budget
    monkeypatch.setattr(exact, "DP_MAX_CELLS", 10)
    assert solve_exact(CpiInstance((1,) * 40)) is True
    monkeypatch.undo()
    monkeypatch.setattr(exact, "decide_meet_in_middle", _refuse("decide_meet_in_middle"))
    assert solve_exact(CpiInstance((1,) * 40)) is True
    assert solve_exact(CpiInstance((1,) * 41)) is False


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


def test_spectrum_refuses_a_total_over_its_guard():
    with pytest.raises(InstanceTooLargeError, match="exceeds the spectrum guard of 2000000"):
        analytic_spectrum(CpiInstance((exact.MAX_SPECTRUM_TOTAL, 1)))


def test_spectrum_lines_count_every_sign_vector():
    # the spectrum and ideal_dc share `_subset_sums`; `_signed_sums` lists all 2**n sums
    rng = random.Random(30)
    for _ in range(60):
        n = rng.randint(1, 16)  # past 12 values the kernel merges beyond its first table
        values = tuple(rng.randint(1, rng.choice((3, 40, 5000))) for _ in range(n))
        freqs, counts = np.unique(exact._signed_sums(values), return_counts=True)
        assert analytic_spectrum(CpiInstance(values)).lines == {
            int(w): Fraction(int(c), 2**n) for w, c in zip(freqs, counts)}


def test_spectrum_memory_follows_its_lines_not_its_total():
    # a dense array of 2*total+1 bins would peak at 64 MB on these seven lines
    spectrum, peak = tracemalloc_peak(
        lambda: analytic_spectrum(CpiInstance((1000000, 999999, 1))))
    assert spectrum.lines == {w: Fraction(1, 8) for w in (-2000000, -1999998, -2, 2, 1999998,
                                                           2000000)} | {0: Fraction(1, 4)}
    assert peak < 1 << 20


def test_spectrum_memory_is_a_few_words_per_line():
    # the kernel's sums and counts, then the spectrum's frequencies and amplitudes: 8-byte
    # words in arrays, where one Python object per line would take more than 64 bytes
    inst = parse_instance("1 3 9 27 81 243 729 2187 6561 19683 59049 177147 7 11 13 17")
    spectrum, peak = tracemalloc_peak(lambda: analytic_spectrum(inst))
    assert len(spectrum.lines) == 20736
    assert peak < 64 * 20736


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


def _power(spectrum) -> float:
    """Total power of a line spectrum: the sum of its squared amplitudes."""
    return float(sum(a * a for a in spectrum.lines.values()))


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=8),
       st.randoms(use_true_random=False))
def test_spectrum_power_permutation_invariant(values, rnd):
    inst = CpiInstance(tuple(values))
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert _power(analytic_spectrum(inst)) == pytest.approx(
        _power(analytic_spectrum(CpiInstance(tuple(shuffled)))))


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
