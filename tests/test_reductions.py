import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cospart.exact import decide_dp, solve_exact
from cospart.pipeline import GridTooLargeError, NonidealityConfig, points_per_period
from cospart.reductions import (Assignment, CnfFormula, ExtractionError,
                                OracleBackend, ParseError, ReductionOverflowError,
                                evaluate, extract_witness, format_solution,
                                parse_dimacs, sat_to_partition, simplify)


def _truth_table_sat(f: CnfFormula) -> bool:
    for bits in itertools.product((False, True), repeat=f.num_vars):
        if evaluate(f, bits):
            return True
    return False


def _random_formula(rng: random.Random, max_vars=8, max_clauses=12) -> CnfFormula:
    nv = rng.randint(1, max_vars)
    nc = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(nc):
        width = rng.randint(1, min(3, nv))
        chosen = rng.sample(range(1, nv + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return CnfFormula(nv, tuple(clauses))


def test_parse_dimacs_basic():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
    assert f.num_vars == 2
    assert f.clauses == ((1, 2), (-1,))


def test_parse_dimacs_unit():
    f = parse_dimacs("p cnf 1 1\n1 0\n")
    assert f.clauses == ((1,),)


def test_parse_dimacs_comments():
    f = parse_dimacs("c hello\np cnf 2 1\nc mid comment\n1 -2 0\n")
    assert f.clauses == ((1, -2),)


def test_parse_dimacs_errors():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf two 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("1 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\n5 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 2\n1 0\n", strict=True)
    with pytest.warns(UserWarning):
        parse_dimacs("p cnf 1 2\n1 0\n")


def test_simplify_examples():
    f = CnfFormula(2, ((1, 2), (-1,)))
    assert simplify(f, 1, True).clauses == ((),)
    assert simplify(f, 1, False).clauses == ((2,),)
    untouched = CnfFormula(3, ((1, 2),))
    assert simplify(untouched, 3, True) == untouched


@settings(max_examples=120)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=4),
       st.booleans())
def test_simplify_preserves_models(seed, var, val):
    rng = random.Random(seed)
    f = _random_formula(rng, max_vars=4, max_clauses=5)
    var = min(var, f.num_vars)
    g = simplify(f, var, val)
    for bits in itertools.product((False, True), repeat=f.num_vars):
        if bits[var - 1] == val:
            assert evaluate(f, bits) == evaluate(g, bits)


def test_reduction_unit_clause():
    inst, meta = sat_to_partition(CnfFormula(1, ((1,),)))
    assert decide_dp(inst) is True
    assert meta.trivial is None
    assert meta.active_vars == (1,)


def test_reduction_contradiction():
    f = CnfFormula(1, ((1,), (-1,)))
    inst, _ = sat_to_partition(f)
    assert decide_dp(inst) is False


def test_reduction_trivial_cases():
    inst, meta = sat_to_partition(CnfFormula(2, ()))
    assert decide_dp(inst) is True and meta.trivial == "sat"
    inst, meta = sat_to_partition(CnfFormula(2, ((1,), ())))
    assert decide_dp(inst) is False and meta.trivial == "unsat"


def test_reduction_metadata_positions():
    f = CnfFormula(2, ((1, 2), (-1,)))
    inst, meta = sat_to_partition(f)
    t1, f1 = meta.literal_positions[1]
    # the "true" number of x1 carries its clause-0 digit; the "false" number
    # carries the clause-1 digit
    assert inst.values[t1 - 1] == 6**2 + 1
    assert inst.values[f1 - 1] == 6**2 + 6
    assert len(meta.slack_positions) == 4
    assert len(inst.values) == 2 * 2 + 2 * 2 + 2


def test_reduction_widens_wide_clauses():
    f = CnfFormula(5, ((1, 2, 3, 4, 5),))
    inst, meta = sat_to_partition(f)
    assert meta.fresh_vars  # clause of width 5 split with fresh variables
    assert decide_dp(inst) is True


def test_reduction_overflow_reports_bits():
    f = CnfFormula(4, ((1, 2, 3), (-1, -2, -3), (2, 3, 4)))
    with pytest.raises(ReductionOverflowError) as err:
        sat_to_partition(f, max_bits=8)
    assert err.value.required_bits > 8


def test_reduction_agrees_with_truth_table_exhaustive_small():
    # all width<=2 formulas over 2 variables with up to 2 clauses
    lits = [1, -1, 2, -2]
    clauses = [(a,) for a in lits] + [(a, b) for a in lits for b in lits if abs(a) < abs(b)]
    for c1 in clauses:
        for c2 in clauses:
            f = CnfFormula(2, (c1, c2))
            assert solve_exact(sat_to_partition(f)[0]) == _truth_table_sat(f), f


@pytest.mark.parametrize("seed", range(40))
def test_reduction_agrees_with_truth_table_random(seed):
    rng = random.Random(seed)
    f = _random_formula(rng, max_vars=6, max_clauses=10)
    inst, _ = sat_to_partition(f)
    assert solve_exact(inst) == _truth_table_sat(f)


def test_extract_witness_unique_model():
    f = CnfFormula(2, ((1, 2), (-1,)))
    backend = OracleBackend(kind="exact-dp")
    assignment = extract_witness(f, backend)
    assert assignment == Assignment((False, True))
    assert backend.calls == f.num_vars + 1


def test_extract_witness_unsat():
    f = CnfFormula(1, ((1,), (-1,)))
    backend = OracleBackend(kind="exact-dp")
    assert extract_witness(f, backend) is None
    assert backend.calls == 1


@pytest.mark.parametrize("seed", range(25))
def test_extract_witness_satisfies(seed):
    rng = random.Random(1000 + seed)
    f = _random_formula(rng, max_vars=8, max_clauses=10)
    backend = OracleBackend(kind="exact-dp")
    assignment = extract_witness(f, backend)
    assert backend.calls <= f.num_vars + 1
    if assignment is None:
        assert not _truth_table_sat(f)
    else:
        assert evaluate(f, assignment.values)


@pytest.mark.parametrize("seed", range(8))
def test_backend_equivalence(seed):
    rng = random.Random(2000 + seed)
    f = _random_formula(rng, max_vars=3, max_clauses=4)
    a = extract_witness(f, OracleBackend(kind="exact-dp"))
    b = extract_witness(f, OracleBackend(kind="exact-bf"))
    assert (a is None) == (b is None)
    if a is not None:
        assert evaluate(f, a.values) and evaluate(f, b.values)


def test_analog_backend_small_formula():
    f = CnfFormula(2, ((1, 2), (-1,)))
    backend = OracleBackend(kind="analog",
                            cfg=NonidealityConfig(bandwidth_model="none"))
    assignment = extract_witness(f, backend)
    assert assignment == Assignment((False, True))


def test_analog_backend_squeezes():
    backend = OracleBackend(kind="analog",
                            cfg=NonidealityConfig(bandwidth_model="none"))
    inst, _ = sat_to_partition(CnfFormula(2, ((1, 2), (-1,))))
    assert inst.total * 1e4 > 120e3
    assert backend.decide(inst) is True
    assert backend.last_scale < 1.0
    assert backend.last_scale * inst.total * 1e4 < 120e3


# its reduction needs 7,200,000 grid points per period, over the 2,000,000 limit
_OVERSIZED = CnfFormula(3, ((1, 2, 3), (-1, 2), (-2, -3), (1, -3)))


def test_analog_backend_refuses_oversized():
    backend = OracleBackend(kind="analog")
    inst, _ = sat_to_partition(_OVERSIZED)
    assert points_per_period(inst, NonidealityConfig.ideal()) == 7_200_000
    with pytest.raises(GridTooLargeError):
        backend.decide(inst)


def test_extraction_error_carries_prefix():
    backend = OracleBackend(kind="analog")
    with pytest.raises(ExtractionError) as err:
        extract_witness(_OVERSIZED, backend)
    assert err.value.partial == ()
    assert isinstance(err.value.__cause__, GridTooLargeError)


def test_format_solution():
    assert format_solution(None) == "s UNSATISFIABLE\n"
    assert format_solution(Assignment((True, False))) == "s SATISFIABLE\nv 1 -2 0\n"
