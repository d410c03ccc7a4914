import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cospart import reductions
from cospart.exact import bruteforce_dc, decide_dp, ideal_dc, solve_exact
from cospart.pipeline import GridTooLargeError, NonidealityConfig, points_per_period
from cospart.reductions import (CnfFormula, ExtractionError,
                                OracleBackend, ParseError, ReductionOverflowError,
                                evaluate, extract_witness, format_solution,
                                parse_dimacs, sat_to_partition, simplify)
from conftest import base6_reduction


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
    with pytest.raises(ParseError, match="negative variable count -1"):
        parse_dimacs("p cnf -1 0\n")
    with pytest.raises(ParseError, match="malformed header"):
        parse_dimacs("p cnf 2 -1\n")
    with pytest.raises(ParseError, match="second header line"):
        parse_dimacs("p cnf 2 1\np cnf 1 1\n1 0\n")
    with pytest.raises(ParseError):
        CnfFormula(-1, ())


def test_parse_dimacs_refuses_a_bad_token_and_a_missing_header():
    with pytest.raises(ParseError, match="bad literal token 'x'"):
        parse_dimacs("p cnf 1 1\n1 x 0\n")
    with pytest.raises(ParseError, match="clause data before the 'p cnf' header"):
        parse_dimacs("c no header\n1 -2 0\n2 0\n")
    with pytest.raises(ParseError, match="missing 'p cnf' header"):
        parse_dimacs("c only a comment\n")


def test_parse_dimacs_takes_a_last_clause_without_its_zero():
    assert parse_dimacs("p cnf 2 2\n1 0\n-1 2\n").clauses == ((1,), (-1, 2))


def test_formula_and_simplify_refuse_out_of_range_variables():
    with pytest.raises(ParseError, match="literal 3 out of range 1..2"):
        CnfFormula(2, ((1, 3),))
    with pytest.raises(ParseError, match="literal 0 out of range 1..2"):
        CnfFormula(2, ((0,),))
    f = CnfFormula(2, ((1, 2),))
    for var in (0, 3):
        with pytest.raises(ValueError, match=f"variable {var} out of range 1..2"):
            simplify(f, var, True)


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
    inst = sat_to_partition(CnfFormula(1, ((1,),)))
    assert decide_dp(inst) is True
    # one variable's number, one clause's two slacks, the pad of its width-1 clause
    assert inst.values == (1, 1, 1, 3)


def test_reduction_contradiction():
    f = CnfFormula(1, ((1,), (-1,)))
    inst = sat_to_partition(f)
    assert decide_dp(inst) is False


def test_reduction_trivial_cases():
    inst = sat_to_partition(CnfFormula(2, ()))
    assert decide_dp(inst) is True and inst.values == (1, 1)
    inst = sat_to_partition(CnfFormula(2, ((1,), ())))
    assert decide_dp(inst) is False and inst.values == (1, 2)


def test_reduction_metadata_positions():
    f = CnfFormula(2, ((1, 2), (-1,)))
    inst = sat_to_partition(f)
    # x1 is in clause 0 and negated in clause 1: |1 - 7|, negated, so its
    # + side reads "false"; x2 is in clause 0 only
    assert inst.values[:2] == (7 - 1, 1)
    assert inst.values[2:6] == (1, 1, 7, 7)  # two slacks per clause
    assert inst.values[6] == (4 - 2) * 1 + (4 - 1) * 7  # the pad
    assert inst.n == 2 + 2 * 2 + 1


def test_reduction_drops_a_variable_of_tautologies_only():
    # x1 is only in the tautology (1, -1, 2): its number, 1 - 1, is 0
    inst = sat_to_partition(CnfFormula(2, ((1, -1, 2), (-2,))))
    # x2's number is |1 - 7|; the pad is (4 - 3) * 1 + (4 - 1) * 7
    assert inst.values == (6, 1, 1, 7, 7, 22)
    assert decide_dp(inst) is True


def test_reduction_widens_wide_clauses():
    f = CnfFormula(5, ((1, 2, 3, 4, 5),))
    inst = sat_to_partition(f)
    # split into (1, 2, 6), (-6, 3, 7), (-7, 4, 5): 7 variables, 3 clauses
    assert inst.values == (1, 1, 7, 49, 49, 7 - 1, 49 - 7, 1, 1, 7, 7, 49, 49, 1 + 7 + 49)
    assert decide_dp(inst) is True


def _ring(k: int) -> CnfFormula:
    """k clauses over k variables, (i, i+1, -(i+2)) cyclically."""
    return CnfFormula(k, tuple((i, i % k + 1, -((i + 1) % k + 1)) for i in range(1, k + 1)))


# a ring of 23 clauses: its reduction sums to a 65-bit integer
_RING = _ring(23)


def test_reduction_overflow_reports_bits():
    assert sat_to_partition(_ring(22)).total.bit_length() == 62  # the last ring that fits
    with pytest.raises(ReductionOverflowError) as err:
        sat_to_partition(_RING)
    assert err.value.required_bits == 65
    assert str(err.value) == "reduction needs 65-bit integers (budget is 62 bits)"
    backend = OracleBackend("exact-dp")
    with pytest.raises(ReductionOverflowError):
        extract_witness(_RING, backend)
    assert backend.calls == 0


def test_reduction_agrees_with_truth_table_exhaustive_small():
    # all width<=2 formulas over 2 variables with up to 2 clauses
    lits = [1, -1, 2, -2]
    clauses = [(a,) for a in lits] + [(a, b) for a in lits for b in lits if abs(a) < abs(b)]
    for c1 in clauses:
        for c2 in clauses:
            f = CnfFormula(2, (c1, c2))
            assert solve_exact(sat_to_partition(f)) == _truth_table_sat(f), f


@pytest.mark.parametrize("seed", range(40))
def test_reduction_agrees_with_truth_table_random(seed):
    rng = random.Random(seed)
    f = _random_formula(rng, max_vars=6, max_clauses=10)
    inst = sat_to_partition(f)
    assert solve_exact(inst) == _truth_table_sat(f)


def _signed_by_columns(f: CnfFormula) -> tuple[int, ...]:
    """The signed construction written column by column, as a reference."""
    max_var = max(abs(l) for cl in f.clauses for l in cl)
    clauses = reductions._widen_to_3cnf(f.clauses, max_var + 1)
    active = sorted({abs(l) for cl in clauses for l in cl})
    m = len(clauses)
    numbers = [abs(sum(((v in cl) - (-v in cl)) * 7 ** j for j, cl in enumerate(clauses)))
               for v in active]
    numbers = [a for a in numbers if a]
    numbers += [7 ** j for j in range(m) for _ in range(2)]
    return tuple(numbers) + (sum((4 - len(cl)) * 7 ** j for j, cl in enumerate(clauses)),)


_LITERAL = st.integers(min_value=-6, max_value=6).filter(bool)


@settings(max_examples=300)
@given(st.lists(st.lists(_LITERAL, min_size=1, max_size=5), min_size=1, max_size=10))
def test_reduction_matches_the_column_construction(clauses):
    # wide clauses, repeated literals and both polarities of one variable in a clause
    f = CnfFormula(6, tuple(map(tuple, clauses)))
    want = _signed_by_columns(f)
    bits = sum(want).bit_length()
    if bits > 62:
        with pytest.raises(ReductionOverflowError, match=f"needs {bits}-bit integers"):
            sat_to_partition(f)
    else:
        assert sat_to_partition(f).values == want


def _active_variables(f: CnfFormula) -> int:
    """The number of variables in the clauses of ``f`` widened to 3-CNF."""
    max_var = max(abs(l) for cl in f.clauses for l in cl)
    return len({abs(l) for cl in reductions._widen_to_3cnf(f.clauses, max_var + 1) for l in cl})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-4, max_value=4).filter(bool),
                         min_size=1, max_size=4), min_size=1, max_size=5))
@example([[1, -1, 2], [-2]])  # x1 drops out
@example([[1, 2, 3, 4], [-1, 1], [2, 2]])  # widened, a tautology and a repeated literal
def test_signed_dc_is_the_base6_dc_times_two_to_the_active_variables(clauses):
    # both count two balanced vectors per satisfying assignment and slack
    # choice, except that the v - v' dropped variables make no signed values:
    # 2**(-(v - v')) the count over 2**(v' + 2c + 1) sign vectors, against
    # 2**(2v + 2c + 2), so 2**(v+1) times the DC
    f = CnfFormula(4, tuple(map(tuple, clauses)))
    signed = sat_to_partition(f)
    dc = ideal_dc(signed)
    assert dc == 2 ** (_active_variables(f) + 1) * ideal_dc(base6_reduction(f))
    assert (dc > 0) == solve_exact(signed) == _truth_table_sat(f)
    if signed.n <= 30:
        assert bruteforce_dc(signed) == dc


def test_extract_witness_unique_model():
    f = CnfFormula(2, ((1, 2), (-1,)))
    backend = OracleBackend(kind="exact-dp")
    assignment = extract_witness(f, backend)
    assert assignment == (False, True)
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
        assert evaluate(f, assignment)


@pytest.mark.parametrize("seed", range(8))
def test_backend_equivalence(seed):
    rng = random.Random(2000 + seed)
    f = _random_formula(rng, max_vars=3, max_clauses=4)
    a = extract_witness(f, OracleBackend(kind="exact-dp"))
    b = extract_witness(f, OracleBackend(kind="exact-bf"))
    assert (a is None) == (b is None)
    if a is not None:
        assert evaluate(f, a) and evaluate(f, b)


def test_analog_backend_small_formula():
    f = CnfFormula(2, ((1, 2), (-1,)))
    backend = OracleBackend(kind="analog",
                            cfg=NonidealityConfig(bandwidth_model="none"))
    assignment = extract_witness(f, backend)
    assert assignment == (False, True)


def test_analog_backend_answers_a_four_variable_formula():
    # every reduction, n = 13 at most, fits the grid guard (the base-6
    # reduction's first call needed 43,200,000 points)
    f = parse_dimacs("p cnf 4 4\n-2 4 -3 0\n4 3 -1 0\n3 -1 -2 0\n-2 -4 -3 0\n")
    backend = OracleBackend(kind="analog")
    assert extract_witness(f, backend) == extract_witness(f, OracleBackend("exact-dp")) \
        == (True, False, True, True)
    assert backend.calls == 5


def _spy_chains(monkeypatch) -> list:
    """The (cfg, spec) of every chain `OracleBackend.decide` runs `decide_analog` on."""
    chains, real = [], reductions.decide_analog
    monkeypatch.setattr(reductions, "decide_analog", lambda inst, cfg, spec, thr:
                        chains.append((cfg, spec)) or real(inst, cfg, spec, thr))
    return chains


def test_analog_backend_squeezes(monkeypatch):
    backend = OracleBackend(kind="analog",
                            cfg=NonidealityConfig(bandwidth_model="none"))
    inst = sat_to_partition(CnfFormula(2, ((1, 2), (-1,))))
    assert inst.total * 1e4 > 120e3
    chains = _spy_chains(monkeypatch)
    assert backend.decide(inst) is True
    (cfg, spec), = chains
    scale = cfg.f_base / 1e4  # the squeeze factor
    assert scale < 1.0
    assert scale * inst.total * 1e4 < 120e3
    assert spec.cutoff_f0 == pytest.approx(scale * backend.fspec.cutoff_f0)


# its reduction needs 12,582,912 grid points per period, over the 2,000,000 limit
_OVERSIZED = CnfFormula(3, ((1, 2, 3), (-1, 2), (-2, -3), (1, -3), (2, 3), (-1, -3), (1, 2, -3)))


def test_analog_backend_refuses_oversized():
    backend = OracleBackend(kind="analog")
    inst = sat_to_partition(_OVERSIZED)
    assert points_per_period(inst, NonidealityConfig.ideal()) == 12_582_912
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
    assert format_solution((True, False)) == "s SATISFIABLE\nv 1 -2 0\n"
    assert format_solution(()) == "s SATISFIABLE\nv 0\n"
