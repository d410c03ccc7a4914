import tracemalloc

import pytest

from cospart import FilterSpec, NonidealityConfig, reductions
from cospart.instances import CpiInstance
from cospart.reductions import CnfFormula


def tracemalloc_peak(fn):
    """Run ``fn()``; return its result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def ideal_cfg():
    return NonidealityConfig.ideal()


@pytest.fixture
def brickwall():
    return FilterSpec(kind="brickwall", cutoff_f0=5000.0)


def base6_reduction(f: CnfFormula) -> CpiInstance:
    """The textbook base-6 SAT reduction, written column by column, as a reference.

    Two numbers per active variable of the widened formula, true then false,
    two slacks per clause and two padding numbers that force the subset-sum
    target (Sipser, *Introduction to the Theory of Computation*, 7.5).
    """
    if any(not cl for cl in f.clauses):
        return CpiInstance((1, 2))
    if not f.clauses:
        return CpiInstance((1, 1))
    max_var = max(abs(l) for cl in f.clauses for l in cl)
    clauses = reductions._widen_to_3cnf(f.clauses, max_var + 1)
    active = sorted({abs(l) for cl in clauses for l in cl})
    m = len(clauses)
    numbers = []
    for col, v in enumerate(active):
        for lit in (v, -v):
            numbers.append(6 ** (m + col) + sum(6 ** j for j, cl in enumerate(clauses) if lit in cl))
    numbers += [6 ** j for j in range(m) for _ in range(2)]
    total = sum(numbers)
    target = sum(6 ** (m + i) for i in range(len(active))) + sum(3 * 6 ** j for j in range(m))
    return CpiInstance(tuple(numbers) + (total + target, 2 * total - target))
