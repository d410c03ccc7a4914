"""Exact digital solvers and the analytic line spectrum.

Three exact decision routes are kept:

- `decide_bruteforce` and `bruteforce_dc` scan the 2**n sign vectors.
  They share no code with the other routes, which are tested against them.
- `decide_dp` computes subset-sum reachability of total/2 in a big-int
  bitmask: about n*(total/2+1)/64 word operations.
- `decide_meet_in_middle` (Horowitz and Sahni, J. ACM 1974) lists the
  distinct subset sums of two halves in sorted order and looks for a pair
  that reaches the target: about (n/2+1)*2**ceil(n/2) operations at most,
  whatever the magnitudes.

`solve_exact` takes whichever of DP and MIM costs fewer operations by these
estimates, DP only within `DP_MAX_CELLS` cells (and, from n = 65 on, within
that many words of shifts).

Every balanced sign vector or its negation has (one copy of) the largest
value a_max on its + side, so MIM pins it there: the other values must reach
target = total/2 - a_max, values above the target drop out, and a negative
target is NO.  Equal values stay in one group, whose c copies add only c+1
sums, and the groups, most copies first, then ascending, are dealt to the
two halves in turn: each half lists at most 2**ceil(n/2) sums.  One value
repeated many times beside many large distinct ones makes one half larger
than the other (15 copies of 10**6 beside 28 values in 1e7..1e9: 2**17 sums
against 2**14).  Both halves' sorted distinct sums come from one
kernel, `_subset_sums`, which takes those (value, copies) groups.  Its
leading groups fill one table, of exactly the product of their (copies + 1)
sums and at most 4096, the c copies of a adding c shifted blocks; the table
is sorted and its repeats merged only when some value does not exceed the
span of the sums before it.  Each later value a extends the sorted sums s by
s + a: a plain concatenation when a exceeds their span, and otherwise a
merge that drops repeats (most of a SAT reduction's signed variable numbers
take a merge).
The decision and the count pair the halves one way, `_merge`: one half's
sums and the target minus the other's are two ascending runs that a stable
sort merges, and a pair of sums reaches the target exactly where two
neighbours are equal.  The decision asks whether there is one.  `ideal_dc`
counts them (`_pairs`): each pair adds the product of the numbers of
subsets behind its two sums, twice (the pinned value on either side).  The
kernel returns a half's counts only when some sum stands for two or more
subsets (equal values, or sums that collide); a half whose sums are all
distinct has none, a missing count reads as 1, and its pairs are just the
equal neighbours.

Spectrum amplitudes use the time-average convention: the line at frequency
w carries (number of sign vectors summing to w) / 2**n, which is directly
testable against numerical integration.  `analytic_spectrum` takes them from
the same counting kernel as `ideal_dc`, a missing count again read as 1: a
sign vector whose + values sum to s sums to 2s - total, so its cost grows
with the number of distinct subset sums, not with the total.  Its
`Spectrum` holds two arrays, exact in float64: 2*sums - total and
counts / 2**n, each count below 2**21.  The Dirac-weight
convention of the angular-frequency Fourier transform differs by sqrt(2*pi).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .instances import CpiInstance
from .pipeline import xy_csv

# Block size for the doubling enumeration (2**22 int64 values = 32 MB).
_ENUM_CHUNK = 22
# The kernel's first table, filled before it merges, holds at most 2**12 sums.
_TABLE_BITS = 12
# Guard of the meet-in-the-middle kernel: besides the pinned value, each half
# lists at most 2**22 sums.
MAX_MIM_N = 44
# Guard of the 2**n sign-vector enumeration in `decide_bruteforce`.
MAX_ENUM_N = 30
# Guards of `analytic_spectrum`: they bound its line count, the CSV's row
# count, by min(2**n, total+1) distinct subset sums.
MAX_SPECTRUM_N = 20
MAX_SPECTRUM_TOTAL = 2_000_000
# Budget of the DP reachability table: total/2+1 cells, one bit each, and of
# the 64-bit words its n shifts touch.
DP_MAX_CELLS = 10**8


class InstanceTooLargeError(ValueError):
    """Instance exceeds the guard of an enumeration-based operation."""


class DpBudgetError(RuntimeError):
    """Reachability table, or the words its shifts touch, would exceed `DP_MAX_CELLS`."""


@dataclass
class Spectrum:
    """Ascending line frequencies ``freqs`` and their amplitudes ``amps``, as arrays.

    Analytic spectra have ``resolution == 0``, int64 frequencies in instance units
    and exact float64 amplitudes; measured spectra carry the DFT bin width.
    """

    freqs: np.ndarray
    amps: np.ndarray
    resolution: float = 0.0

    @property
    def lines(self) -> dict:
        return dict(zip(self.freqs.tolist(), self.amps.tolist()))

    @property
    def dc(self) -> float:  # 0.0 when no line sits at frequency 0
        return float(self.amps[self.freqs == 0].sum())

    def to_csv(self, units: str = "Hz") -> str:
        return f"# units={units}\n" + xy_csv("frequency,amplitude", self.freqs, self.amps)


def _signed_sums(values: tuple[int, ...]) -> np.ndarray:
    sums = np.zeros(1, dtype=np.int64)
    for a in values:
        sums = np.concatenate([sums + a, sums - a])
    return sums


def _zero_sign_count(values: tuple[int, ...]) -> int:
    """Count sign vectors eps with sum(eps_i * a_i) == 0, by enumeration."""
    k = len(values)
    if k <= _ENUM_CHUNK:
        return int(np.count_nonzero(_signed_sums(values) == 0))
    head, tail = values[: k - _ENUM_CHUNK], values[k - _ENUM_CHUNK:]
    tail_sums = np.sort(_signed_sums(tail))
    count = 0
    for signs in itertools.product((1, -1), repeat=len(head)):
        s = sum(si * ai for si, ai in zip(signs, head))
        lo = np.searchsorted(tail_sums, -s, side="left")
        hi = np.searchsorted(tail_sums, -s, side="right")
        count += int(hi - lo)
    return count


def _check_enum_guard(inst: CpiInstance, max_n: int) -> None:
    if inst.n > max_n:
        raise InstanceTooLargeError(f"n={inst.n} exceeds the n<={max_n} enumeration guard")


def bruteforce_dc(inst: CpiInstance) -> Fraction:
    """`ideal_dc` by the direct 2**n scan: (balanced sign vectors) / 2**n."""
    _check_enum_guard(inst, MAX_ENUM_N)
    return Fraction(_zero_sign_count(inst.values), 2**inst.n)


def decide_bruteforce(inst: CpiInstance) -> bool:
    """True iff some sign vector balances the instance.  Direct 2**n scan."""
    return bruteforce_dc(inst) > 0


def _run_starts(merged: np.ndarray) -> np.ndarray:
    """Boolean mask of the first element of each run of equal sorted values."""
    first = np.empty(len(merged), dtype=bool)
    first[0] = True
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    return first


def _groups(values: Iterable[int]) -> list[tuple[int, int]]:
    """(value, copies) groups of `values`: most copies first, then ascending value."""
    return sorted(Counter(values).items(), key=lambda g: (-g[1], g[0]))


def _sort_distinct(sums: np.ndarray, tags: Optional[np.ndarray], counts: bool,
                   kind: Optional[str] = None) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Sort `sums` in place (numpy's sort ``kind``) and merge equal sums, adding their tags.

    Without ``tags`` each sum stands for one subset.  If the sorted sums are
    distinct they are returned as they are, still without tags; otherwise
    they are compacted and, with ``counts``, tagged with the lengths of
    their runs of equal sums.  On two sorted runs the stable sort merges in
    linear time.
    """
    if tags is None:
        sums.sort(kind=kind)
        first = _run_starts(sums)
        if first.all():
            return sums, None
        if counts:
            starts = np.flatnonzero(first)
            tags = np.empty(len(starts), dtype=np.int64)
            np.subtract(starts[1:], starts[:-1], out=tags[:-1])
            tags[-1] = len(sums) - starts[-1]
        return sums[first], tags
    order = sums.argsort(kind=kind)
    sums = sums[order]
    starts = np.flatnonzero(_run_starts(sums))
    return sums[starts], np.add.reduceat(tags[order], starts)


def _subset_sums(groups: Sequence[tuple[int, int]],
                 counts: bool = False) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Sorted distinct subset sums of the multiset of (value, copies) `groups`.

    The second item is the int64 count of subsets behind each sum, equal
    values told apart, so that all counts sum to 2**(number of values).  It
    is None without ``counts``, and also with it when every sum stands for
    exactly one subset: a missing count reads as 1.  So a count array is
    returned exactly when some sum has two or more subsets behind it.

    The leading groups, while the product of their (copies + 1) stays
    within 2**`_TABLE_BITS`, fill one table of exactly that many sums,
    group by group: c copies of a add the c blocks s + k*a, k = 1..c, of the
    sums s before them, and with ``counts`` block k's tags are the earlier
    tags times comb(c, k).  The table is sorted, and its equal sums merged,
    only when some a does not exceed the span of the sums before it;
    otherwise its blocks already ascend and are distinct.  Each copy of a
    later group adds s + a to the sums s: a concatenation when a exceeds
    their span, and otherwise a stable sort of the two sorted runs that
    merges equal sums.
    """
    size, head = 1, 0
    for _, c in groups:
        if size * (c + 1) > 1 << _TABLE_BITS:
            break
        size *= c + 1
        head += 1
    sums = np.empty(size, dtype=np.int64)
    sums[0] = 0
    tags = None
    width, span, overlap = 1, 0, False
    for a, c in groups[:head]:
        end = width * (c + 1)
        overlap = overlap or a <= span
        if c == 1:  # one block: most groups, spared the block loop's cost
            np.add(sums[:width], a, out=sums[width:end])
            if tags is not None:
                tags[width:end] = tags[:width]
        else:
            if counts and tags is None:
                tags = np.ones(size, dtype=np.int64)
            for k in range(1, c + 1):
                block = slice(k * width, (k + 1) * width)
                np.add(sums[:width], k * a, out=sums[block])
                if tags is not None:
                    np.multiply(tags[:width], math.comb(c, k), out=tags[block])
        width = end
        span += c * a
    if overlap:
        sums, tags = _sort_distinct(sums, tags, counts)
    for a, c in groups[head:]:
        for _ in range(c):
            m = len(sums)
            merged = np.empty(2 * m, dtype=np.int64)
            merged[:m] = sums
            np.add(sums, a, out=merged[m:])
            if tags is not None:
                tags = np.concatenate([tags, tags])
            if a > sums[-1]:  # the span, as the smallest sum is 0
                sums = merged
            else:
                sums, tags = _sort_distinct(merged, tags, counts, kind="stable")
    return sums, tags


def _halves(inst: CpiInstance) -> tuple[tuple[tuple[int, int], ...],
                                        tuple[tuple[int, int], ...], int]:
    """Two halves of the values besides one pinned copy of the largest, and their target.

    Each half is a tuple of (value, copies) groups, as `_subset_sums` takes;
    past n = `MAX_MIM_N` the instance is refused.

    Every balanced sign vector or its negation has the largest value a_max
    on its + side, so the other + values must sum to target = total/2 -
    a_max.  Values above the target drop out; a negative target leaves both
    halves empty and no pair of sums can reach it.  Equal values stay in one
    group, and the groups, in `_groups` order (falling copies, then
    ascending value), are dealt to the two halves in turn.
    """
    if inst.n > MAX_MIM_N:
        raise InstanceTooLargeError(f"n={inst.n} exceeds the n<={MAX_MIM_N} meet-in-middle guard")
    a_max = max(inst.values)
    target = inst.total // 2 - a_max
    rest = list(inst.values)
    rest.remove(a_max)
    groups = _groups(a for a in rest if a <= target)
    return tuple(groups[0::2]), tuple(groups[1::2]), target


def _merge(left: np.ndarray, right: np.ndarray, target: int) -> np.ndarray:
    """The sorted distinct sums `left` and target minus `right`, merged in ascending order.

    Both runs ascend and hold distinct sums, so the stable sort merges them
    in linear time, and two neighbours are equal exactly where left[i] +
    right[j] == target.
    """
    m = len(left)
    merged = np.empty(m + len(right), dtype=np.int64)
    merged[:m] = left
    np.subtract(target, right[::-1], out=merged[m:])
    merged.sort(kind="stable")
    return merged


def _pairs(left: tuple[np.ndarray, Optional[np.ndarray]],
           right: tuple[np.ndarray, Optional[np.ndarray]], target: int) -> int:
    """Number of subset pairs, one of each half, whose sums add up to `target`.

    Each half is (sums, counts) as `_subset_sums` returns it, a missing
    count read as 1.  Each equal pair of neighbours in `_merge` adds the
    product of its two sums' counts; without count arrays it adds 1.
    """
    (x, c_x), (y, c_y) = left, right
    merged = _merge(x, y, target)
    met = merged[1:][merged[1:] == merged[:-1]]  # the left sums that reach the target
    if c_x is None and c_y is None:
        return len(met)
    weight = np.ones(len(met), dtype=np.int64)
    if c_x is not None:
        weight *= c_x[np.searchsorted(x, met)]
    if c_y is not None:
        weight *= c_y[np.searchsorted(y, target - met)]
    return int(weight.sum())


def ideal_dc(inst: CpiInstance) -> Fraction:
    """Mean of the cosine product over one period: (balanced vectors) / 2**n.

    A sign vector balances when its + positions sum to total/2.  With the
    largest value pinned to the + side (`_halves`), the numerator is twice
    the number of subset pairs, one of each half, whose sums reach the
    target: the sum over x of c_L[x] * c_R[target - x], where c_L and c_R
    count the subsets of each half by their sum (`_pairs`).  It is at most
    2**n.
    """
    if inst.total % 2:
        return Fraction(0)
    lo, hi, target = _halves(inst)
    pairs = _pairs(_subset_sums(lo, counts=True), _subset_sums(hi, counts=True), target)
    return Fraction(2 * pairs, 2**inst.n)


def _dp_reachable(values: tuple[int, ...], half: int) -> int:
    """Bitmask of subset sums reachable within [0, half]."""
    keep = (1 << (half + 1)) - 1
    mask = 1
    for a in values:
        mask |= mask << a
        mask &= keep
    return mask


def _dp_budget_cells(inst: CpiInstance) -> int:
    return inst.total // 2 + 1


def _dp_is_cheaper(inst: CpiInstance) -> bool:
    """True when DP fits `DP_MAX_CELLS` and costs no more than MIM.

    DP shifts a (total/2+1)-bit mask once per value, n*cells/64 words; MIM
    merges up to 2**ceil(n/2) sums in n/2+1 steps, (n/2+1)*2**ceil(n/2).
    With the pinned value, the dropped values and the groups dealt to the
    halves in turn (`_halves`), that MIM estimate is an upper bound.  It is
    kept as it is on purpose, so that the dispatch between the routes does
    not move.
    """
    n, cells = inst.n, _dp_budget_cells(inst)
    return cells <= DP_MAX_CELLS and n * cells <= 32 * (n + 2) * 2 ** ((n + 1) // 2)


def decide_dp(inst: CpiInstance) -> bool:
    """Pseudo-polynomial decision: subset-sum reachability of total/2.

    Refused with `DpBudgetError` when the table's cells, or the words its n
    shifts touch (about n*cells/64), exceed `DP_MAX_CELLS`; the second
    bound binds only from n = 65 on.
    """
    if inst.total % 2:
        return False
    cells = _dp_budget_cells(inst)
    if cells > DP_MAX_CELLS:
        raise DpBudgetError(f"{cells} reachability cells exceed the budget of {DP_MAX_CELLS}")
    words = inst.n * cells // 64
    if words > DP_MAX_CELLS:
        raise DpBudgetError(f"{inst.n} shifts of {cells} reachability cells, about {words} "
                            f"words, exceed the budget of {DP_MAX_CELLS}")
    half = inst.total // 2
    return bool((_dp_reachable(inst.values, half) >> half) & 1)


def decide_meet_in_middle(inst: CpiInstance) -> bool:
    """Magnitude-independent exact decision at 2**(n/2) cost (Horowitz-Sahni)."""
    if inst.total % 2:
        return False
    lo, hi, target = _halves(inst)
    # a pair reaches the target exactly where two neighbours of the merge are equal
    return not _run_starts(_merge(_subset_sums(hi)[0], _subset_sums(lo)[0], target)).all()


def solve_exact(inst: CpiInstance) -> bool:
    """Exact decision by whichever of DP and MIM costs less (`_dp_is_cheaper`).

    DP is taken only within `DP_MAX_CELLS` cells.  An odd total is NO at
    once; past n = MAX_MIM_N an even one makes MIM raise
    `InstanceTooLargeError`, and from n = 45 on DP is the cheaper route
    whenever it fits the budget, which `decide_dp` also holds its shifts to
    from n = 65 on (`DpBudgetError`).
    """
    if _dp_is_cheaper(inst):
        return decide_dp(inst)
    return decide_meet_in_middle(inst)


def analytic_spectrum(inst: CpiInstance) -> Spectrum:
    """Exact line spectrum of the cosine product.

    Lines sit at every signed sum of the values; coincident subsets add
    coherently, so the amplitude at w is (multiplicity of w) / 2**n and the
    DC line equals `ideal_dc`.  The c subsets whose values sum to s, counted
    by `_subset_sums`, are the sign vectors at w = 2s - total.
    """
    _check_enum_guard(inst, MAX_SPECTRUM_N)
    total = inst.total
    if total > MAX_SPECTRUM_TOTAL:
        raise InstanceTooLargeError(
            f"sum={total} exceeds the spectrum guard of {MAX_SPECTRUM_TOTAL}")
    sums, counts = _subset_sums(_groups(inst.values), counts=True)
    if counts is None:  # every line stands for one sign vector
        counts = np.ones(len(sums))
    return Spectrum(freqs=2 * sums - total, amps=counts / 2**inst.n)
