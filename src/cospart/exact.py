"""Exact digital solvers and the analytic line spectrum.

Three exact decision routes are kept:

- `decide_bruteforce` enumerates the 2**n sign vectors.  It shares no code
  with the other routes, which are tested against it.
- `decide_dp` computes subset-sum reachability of total/2 in a big-int
  bitmask: about n*(total/2+1)/64 word operations.
- `decide_meet_in_middle` (Horowitz and Sahni, J. ACM 1974) lists each
  half's distinct subset sums in sorted order and looks up total/2 - x in
  the other half: about (n/2+1)*2**ceil(n/2) operations, whatever the
  magnitudes.

`solve_exact` and `find_partition` take whichever of DP and MIM costs fewer
operations by these estimates, DP only within its cell budget.  Both halves'
sorted sums come from one kernel that merges the sorted sums s with the
sorted s + a at each doubling step.  Its counted form keeps the number of
subsets behind each sum, which gives `ideal_dc` from the same two halves.

Spectrum amplitudes use the time-average convention: the line at frequency
w carries (number of sign vectors summing to w) / 2**n, which is directly
testable against numerical integration.  The Dirac-weight convention of the
angular-frequency Fourier transform differs by a constant sqrt(2*pi).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .instances import CpiInstance

# Block size for the doubling enumeration (2**22 int64 values = 32 MB).
_ENUM_CHUNK = 22
# Guard of the meet-in-the-middle kernel: each half lists at most 2**22 sums.
MAX_MIM_N = 44


class InstanceTooLargeError(ValueError):
    """Instance exceeds the guard of an enumeration-based operation."""


class DpBudgetError(RuntimeError):
    """Reachability table would exceed the configured cell budget."""


@dataclass(frozen=True)
class PartitionWitness:
    """A subset of 1-based positions whose values sum to half the total."""

    subset: frozenset[int]


@dataclass
class Spectrum:
    """Frequency -> amplitude map.

    Analytic spectra have ``resolution == 0``, integer frequencies in
    instance units and exact `Fraction` amplitudes; measured spectra carry
    the DFT bin width and float amplitudes.
    """

    lines: dict = field(default_factory=dict)
    resolution: float = 0.0

    @property
    def dc(self):
        return self.lines.get(0, 0)

    def total_power(self) -> float:
        return float(sum(a * a for a in self.lines.values()))

    def to_csv(self, units: str = "Hz") -> str:
        rows = [f"# units={units}", "frequency,amplitude"]
        for f in sorted(self.lines):
            rows.append(f"{float(f):.12g},{float(self.lines[f]):.12g}")
        return "\n".join(rows) + "\n"


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


def decide_bruteforce(inst: CpiInstance, max_n: int = 30) -> bool:
    """True iff some sign vector balances the instance.  Direct 2**n scan."""
    _check_enum_guard(inst, max_n)
    return _zero_sign_count(inst.values) > 0


def _check_mim_guard(inst: CpiInstance, max_n: int) -> None:
    if inst.n > max_n:
        raise InstanceTooLargeError(f"n={inst.n} exceeds the n<={max_n} meet-in-middle guard")


def _run_starts(merged: np.ndarray) -> np.ndarray:
    """Boolean mask of the first element of each run of equal sorted values."""
    first = np.empty(len(merged), dtype=bool)
    first[0] = True
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    return first


def _subset_sums(values: tuple[int, ...]) -> np.ndarray:
    """Sorted distinct subset sums of `values`.

    Each step merges the sorted sums s with the sorted s + a: the stable sort
    finds the two runs and merges them in linear time, and equal neighbours
    are dropped.
    """
    sums = np.zeros(1, dtype=np.int64)
    for a in values:
        merged = np.concatenate([sums, sums + a])
        merged.sort(kind="stable")
        sums = merged[_run_starts(merged)]
    return sums


def _tagged_subset_sums(values: tuple[int, ...],
                        counted: bool) -> tuple[np.ndarray, np.ndarray]:
    """`_subset_sums` with one int64 tag per sum.

    With ``counted`` the tag is the number of subsets with that sum; the tags
    of equal sums add, and all tags sum to 2**len(values).  Otherwise it is
    the bitmask (bit i for values[i]) of one subset with that sum, so
    len(values) must stay below 63.
    """
    sums = np.zeros(1, dtype=np.int64)
    tags = np.array([1 if counted else 0], dtype=np.int64)
    for i, a in enumerate(values):
        merged = np.concatenate([sums, sums + a])
        order = merged.argsort(kind="stable")
        merged = merged[order]
        tagged = np.concatenate([tags, tags if counted else tags | (1 << i)])[order]
        starts = np.flatnonzero(_run_starts(merged))
        sums = merged[starts]
        tags = np.add.reduceat(tagged, starts) if counted else tagged[starts]
    return sums, tags


def _halves(inst: CpiInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    mid = inst.n // 2
    return inst.values[:mid], inst.values[mid:]


def _match(left: np.ndarray, right: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices i, j of every pair of sorted distinct sums with left[i] + right[j] == half."""
    need = half - left
    j = np.minimum(np.searchsorted(right, need), len(right) - 1)
    hit = right[j] == need
    return np.flatnonzero(hit), j[hit]


def ideal_dc(inst: CpiInstance, max_n: int = MAX_MIM_N) -> Fraction:
    """Mean of the cosine product over one period: (balanced vectors) / 2**n.

    A sign vector balances when its + positions sum to total/2, so the
    numerator is the sum over x of c_L[x] * c_R[total/2 - x], where c_L and
    c_R count the subsets of each half by their sum.  It is at most 2**n.
    """
    _check_mim_guard(inst, max_n)
    if inst.total % 2:
        return Fraction(0)
    lo, hi = _halves(inst)
    left, c_left = _tagged_subset_sums(lo, counted=True)
    right, c_right = _tagged_subset_sums(hi, counted=True)
    i, j = _match(left, right, inst.total // 2)
    return Fraction(int(np.dot(c_left[i], c_right[j])), 2**inst.n)


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


def _dp_is_cheaper(inst: CpiInstance, max_cells: int) -> bool:
    """True when DP fits ``max_cells`` and costs no more than MIM.

    DP shifts a (total/2+1)-bit mask once per value, n*cells/64 words; MIM
    merges up to 2**ceil(n/2) sums in n/2+1 steps, (n/2+1)*2**ceil(n/2).
    """
    n, cells = inst.n, _dp_budget_cells(inst)
    return cells <= max_cells and n * cells <= 32 * (n + 2) * 2 ** ((n + 1) // 2)


def decide_dp(inst: CpiInstance, max_cells: int = 10**8) -> bool:
    """Pseudo-polynomial decision: subset-sum reachability of total/2."""
    cells = _dp_budget_cells(inst)
    if cells > max_cells:
        raise DpBudgetError(f"{cells} reachability cells exceed the budget of {max_cells}")
    if inst.total % 2:
        return False
    half = inst.total // 2
    return bool((_dp_reachable(inst.values, half) >> half) & 1)


def decide_meet_in_middle(inst: CpiInstance, max_n: int = MAX_MIM_N) -> bool:
    """Magnitude-independent exact decision at 2**(n/2) cost (Horowitz-Sahni)."""
    _check_mim_guard(inst, max_n)
    if inst.total % 2:
        return False
    lo, hi = _halves(inst)
    hits, _ = _match(_subset_sums(lo), _subset_sums(hi), inst.total // 2)
    return len(hits) > 0


def solve_exact(inst: CpiInstance, max_cells: int = 10**8) -> bool:
    """Exact decision by whichever of DP and MIM costs less (`_dp_is_cheaper`).

    DP is taken only within ``max_cells`` cells.  MIM raises
    `InstanceTooLargeError` past n = MAX_MIM_N; from n = 45 on DP is the
    cheaper route whenever it fits the budget.
    """
    if _dp_is_cheaper(inst, max_cells):
        return decide_dp(inst, max_cells=max_cells)
    return decide_meet_in_middle(inst)


def _dp_backtrack(values: tuple[int, ...], half: int) -> Optional[frozenset[int]]:
    """1-based positions of a subset summing to ``half``, by checkpointed DP.

    The forward pass keeps every s-th reachability mask, s = ceil(sqrt(n)).
    The backtrack walks segments from the last one back, recomputing each
    segment's masks from its checkpoint: about 2*sqrt(n) masks of half+1
    bits are alive at once, and at most n shifts are redone.
    """
    n = len(values)
    step = math.isqrt(n - 1) + 1
    keep = (1 << (half + 1)) - 1
    checkpoints = []
    mask = 1
    for i, a in enumerate(values):
        if i % step == 0:
            checkpoints.append(mask)
        mask = (mask | (mask << a)) & keep
    if not (mask >> half) & 1:
        return None
    del mask
    subset = set()
    target = half
    for lo in range((len(checkpoints) - 1) * step, -1, -step):
        hi = min(lo + step, n)
        segment = [checkpoints.pop()]  # the masks before values lo .. hi-1
        for a in values[lo:hi - 1]:
            segment.append((segment[-1] | (segment[-1] << a)) & keep)
        for i in range(hi - 1, lo - 1, -1):
            if not (segment.pop() >> target) & 1:
                subset.add(i + 1)
                target -= values[i]
    assert target == 0
    return frozenset(subset)


def find_partition(inst: CpiInstance, max_cells: int = 10**8) -> Optional[PartitionWitness]:
    """Balanced subset (1-based positions), by the route `solve_exact` takes.

    Memory depends on the route.  The DP route (`_dp_backtrack`) keeps about
    2*sqrt(n) reachability masks of total/2+1 bits, 2*sqrt(n)*cells/8 bytes
    (at most 2*sqrt(n)*max_cells/8), and takes under twice the time of the
    decision alone.  The MIM route keeps each half's sorted sums with one
    subset bitmask per sum and its merge temporaries, about 70*2**ceil(n/2)
    bytes whatever the magnitudes (285 MB at n = 44).
    """
    if inst.total % 2:
        return None
    half = inst.total // 2
    if _dp_is_cheaper(inst, max_cells):
        subset = _dp_backtrack(inst.values, half)
        return None if subset is None else PartitionWitness(subset)
    _check_mim_guard(inst, MAX_MIM_N)
    lo, hi = _halves(inst)
    left, m_left = _tagged_subset_sums(lo, counted=False)
    right, m_right = _tagged_subset_sums(hi, counted=False)
    i, j = _match(left, right, half)
    if not len(i):
        return None
    mask = int(m_left[i[0]]) | int(m_right[j[0]]) << len(lo)
    return PartitionWitness(frozenset(k + 1 for k in range(inst.n) if mask >> k & 1))


def analytic_spectrum(inst: CpiInstance, max_n: int = 20,
                      max_total: int = 2_000_000) -> Spectrum:
    """Exact line spectrum of the cosine product.

    Lines sit at every signed sum of the values; coincident subsets add
    coherently, so the amplitude at w is (multiplicity of w) / 2**n and the
    DC line equals `ideal_dc`.
    """
    _check_enum_guard(inst, max_n)
    total = inst.total
    if total > max_total:
        raise InstanceTooLargeError(f"sum={total} exceeds the spectrum guard of {max_total}")
    counts = np.zeros(2 * total + 1, dtype=np.int64)
    counts[total] = 1
    for a in inst.values:
        nxt = np.zeros_like(counts)
        nxt[a:] += counts[:-a]
        nxt[:-a] += counts[a:]
        counts = nxt
    denom = 2**inst.n
    lines = {int(i - total): Fraction(int(c), denom)
             for i, c in enumerate(counts) if c}
    return Spectrum(lines=lines, resolution=0.0)
