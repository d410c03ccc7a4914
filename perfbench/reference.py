"""Reference answers for the benchmark, written apart from ``cospart``.

Nothing here imports the package under test, so a fault in its solvers
cannot hide a fault in the checks.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Sequence


def _signed_sums(values: Sequence[int]) -> list[int]:
    sums = [0]
    for a in values:
        sums = [s + a for s in sums] + [s - a for s in sums]
    return sums


def balanced_count(values: Sequence[int]) -> int:
    """Number of sign vectors eps with sum(eps_i * a_i) == 0.

    Meet in the middle: every signed sum of the left half is matched against
    the negated signed sums of the right half.  The instance is a YES
    instance iff the count is nonzero, and its ideal DC is count / 2**n.
    """
    mid = len(values) // 2
    right = Counter(_signed_sums(values[mid:]))
    return sum(right[-s] for s in _signed_sums(values[:mid]))


def cnf_satisfiable(num_vars: int, clauses: Sequence[Sequence[int]]) -> bool:
    """Truth-table check: does any of the 2**num_vars assignments satisfy every clause?"""
    for bits in itertools.product((False, True), repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


def model_satisfies(clauses: Iterable[Sequence[int]], model: Iterable[int]) -> bool:
    """True iff the set of true literals ``model`` meets every clause."""
    true_lits = set(model)
    return all(any(l in true_lits for l in cl) for cl in clauses)


def parse_model(text: str, num_vars: int) -> list[int]:
    """Literals of the ``v ... 0`` line of a DIMACS solution.

    Raises ValueError unless the line names each variable 1..num_vars once
    and ends with 0.
    """
    lines = [ln.split() for ln in text.splitlines() if ln.startswith("v ")]
    if len(lines) != 1 or lines[0][-1] != "0":
        raise ValueError(f"no single terminated model line in {text!r}")
    lits = [int(tok) for tok in lines[0][1:-1]]
    if sorted(abs(l) for l in lits) != list(range(1, num_vars + 1)):
        raise ValueError(f"model {lits} does not assign variables 1..{num_vars} once")
    return lits
