"""CNF parsing, the SAT-to-PARTITION reduction and witness extraction.

The reduction is the textbook digit construction: one number per literal
polarity and two slack numbers per clause, base 6 (so columns never carry),
followed by the standard two-number padding that turns subset-sum into an
equal-split question.  Satisfying assignments come out of the decision
oracle by fixing variables one at a time and re-reducing the simplified
formula: at most 1 + num_vars oracle calls.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .calibration import DecisionThreshold, auto_threshold, decide_analog
from .dsp import FilterSpec
from .exact import InstanceTooLargeError, decide_bruteforce, solve_exact
from .instances import CpiInstance, scale_instance
from .pipeline import GridTooLargeError, NonidealityConfig, bandwidth_exceeded


class ParseError(ValueError):
    """Malformed DIMACS input."""


class ReductionOverflowError(OverflowError):
    """The digit construction exceeds the integer budget."""

    def __init__(self, required_bits: int, max_bits: int):
        self.required_bits = required_bits
        super().__init__(f"reduction needs {required_bits}-bit integers "
                         f"(budget is {max_bits} bits)")


class ExtractionError(RuntimeError):
    """Witness extraction aborted; carries the assignment prefix found so far."""

    def __init__(self, message: str, partial: tuple[bool, ...] = ()):
        self.partial = partial
        super().__init__(message)


@dataclass(frozen=True)
class CnfFormula:
    """CNF over variables 1..num_vars; an empty clause marks unsatisfiability."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        clauses = tuple(tuple(cl) for cl in self.clauses)
        for cl in clauses:
            for lit in cl:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ParseError(f"literal {lit} out of range 1..{self.num_vars}")
        object.__setattr__(self, "clauses", clauses)


@dataclass(frozen=True)
class Assignment:
    """One boolean per variable, in variable order."""

    values: tuple[bool, ...]


def parse_dimacs(text: str, strict: bool = False) -> CnfFormula:
    """Parse DIMACS CNF ('p cnf V C' header, zero-terminated clauses)."""
    num_vars: Optional[int] = None
    declared = 0
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for line in text.splitlines():
        s = line.strip()
        if not s or s.startswith("c") or s.startswith("%"):
            continue
        if s.startswith("p"):
            parts = s.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"malformed header: {s!r}")
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed header: {s!r}") from None
            continue
        if num_vars is None:
            raise ParseError("clause data before the 'p cnf' header")
        for tok in s.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad literal token {tok!r}") from None
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > num_vars:
                    raise ParseError(f"literal {lit} out of range 1..{num_vars}")
                current.append(lit)
    if num_vars is None:
        raise ParseError("missing 'p cnf' header")
    if current:
        clauses.append(tuple(current))
    if declared != len(clauses):
        msg = f"header declares {declared} clauses, found {len(clauses)}"
        if strict:
            raise ParseError(msg)
        warnings.warn(msg, stacklevel=2)
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def evaluate(f: CnfFormula, values: Sequence[bool]) -> bool:
    """Truth of the formula under a full assignment."""
    for clause in f.clauses:
        if not any(values[abs(l) - 1] == (l > 0) for l in clause):
            return False
    return True


def simplify(f: CnfFormula, var: int, val: bool) -> CnfFormula:
    """Substitute one variable: drop satisfied clauses, strip dead literals.

    Variable numbering is preserved; an emptied clause stays as the
    unsatisfiability marker.
    """
    if not 1 <= var <= f.num_vars:
        raise ValueError(f"variable {var} out of range 1..{f.num_vars}")
    true_lit = var if val else -var
    out = []
    for clause in f.clauses:
        if true_lit in clause:
            continue
        out.append(tuple(l for l in clause if l != -true_lit))
    return CnfFormula(num_vars=f.num_vars, clauses=tuple(out))


@dataclass(frozen=True)
class SatReduction:
    """Maps positions of the produced instance back to the formula."""

    active_vars: tuple[int, ...]
    fresh_vars: tuple[int, ...]
    literal_positions: dict  # var -> (pos of true-number, pos of false-number), 1-based
    slack_positions: tuple[int, ...]
    padding_positions: tuple[int, int]
    num_clauses: int
    trivial: Optional[str] = None  # "sat" | "unsat" when no construction was needed


def _widen_to_3cnf(clauses: Sequence[tuple[int, ...]],
                   next_var: int) -> tuple[list[tuple[int, ...]], list[int]]:
    out: list[tuple[int, ...]] = []
    fresh: list[int] = []
    for clause in clauses:
        cur = list(dict.fromkeys(clause))  # dedupe, keep order
        while len(cur) > 3:
            fresh.append(next_var)
            out.append((cur[0], cur[1], next_var))
            cur = [-next_var] + cur[2:]
            next_var += 1
        out.append(tuple(cur))
    return out, fresh


def sat_to_partition(f: CnfFormula, max_bits: int = 62) -> tuple[CpiInstance, SatReduction]:
    """Digit-vector reduction; the result is balanced iff ``f`` is satisfiable.

    Raises:
        ReductionOverflowError: when the construction needs integers wider
            than ``max_bits`` bits (the required width is reported).
    """
    if any(len(cl) == 0 for cl in f.clauses):
        return CpiInstance((1, 2)), SatReduction((), (), {}, (), (1, 2), 0, trivial="unsat")
    if not f.clauses:
        return CpiInstance((1, 1)), SatReduction((), (), {}, (), (1, 2), 0, trivial="sat")

    max_var = max(abs(l) for cl in f.clauses for l in cl)
    clauses, fresh = _widen_to_3cnf(f.clauses, max_var + 1)
    active = sorted({abs(l) for cl in clauses for l in cl})
    col = {v: i for i, v in enumerate(active)}
    n_clauses = len(clauses)
    n_vars = len(active)

    numbers: list[int] = []
    literal_positions = {}
    for v in active:
        t_num = 6 ** (n_clauses + col[v])
        f_num = 6 ** (n_clauses + col[v])
        for j, clause in enumerate(clauses):
            if v in clause:
                t_num += 6 ** j
            if -v in clause:
                f_num += 6 ** j
        numbers.append(t_num)
        numbers.append(f_num)
        literal_positions[v] = (len(numbers) - 1, len(numbers))
    slack_positions = []
    for j in range(n_clauses):
        numbers.append(6 ** j)
        slack_positions.append(len(numbers))
        numbers.append(6 ** j)
        slack_positions.append(len(numbers))

    target = sum(6 ** (n_clauses + i) for i in range(n_vars)) \
        + sum(3 * 6 ** j for j in range(n_clauses))
    total = sum(numbers)
    # The finished instance sums to 4*total; solvers accumulate that in int64.
    required_bits = (4 * total).bit_length()
    if required_bits > max_bits:
        raise ReductionOverflowError(required_bits, max_bits)
    numbers.append(total + target)       # forces the "target" side
    numbers.append(2 * total - target)   # forces the complement side
    padding = (len(numbers) - 1, len(numbers))

    inst = CpiInstance(tuple(numbers))
    meta = SatReduction(active_vars=tuple(active), fresh_vars=tuple(fresh),
                        literal_positions=literal_positions,
                        slack_positions=tuple(slack_positions),
                        padding_positions=padding, num_clauses=n_clauses)
    return inst, meta


BACKEND_KINDS = ("exact-dp", "exact-bruteforce", "analog-simulated")

# Squeezed instances sum to this fraction of the multiplier bandwidth.
_SQUEEZE_MARGIN = 0.9


@dataclass
class OracleBackend:
    """A PARTITION decision procedure usable by the extraction loop.

    ``exact-dp`` calls `solve_exact`, which takes the cheaper of the
    reachability table and meet-in-the-middle (reductions have huge
    magnitudes but few values, so mostly the latter).  ``analog-simulated``
    squeezes the instance under the multiplier bandwidth first;
    `run_cascade` raises `GridTooLargeError` for instances whose dense grid
    would be unreasonably large.
    """

    kind: str
    cfg: Optional[NonidealityConfig] = None
    fspec: Optional[FilterSpec] = None
    threshold: Optional[DecisionThreshold] = None
    calls: int = 0
    last_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"kind must be one of {BACKEND_KINDS}")

    def decide(self, inst: CpiInstance) -> bool:
        self.calls += 1
        if self.kind == "exact-dp":
            return solve_exact(inst)
        if self.kind == "exact-bruteforce":
            return decide_bruteforce(inst)
        return self._decide_analog(inst)

    def _decide_analog(self, inst: CpiInstance) -> bool:
        cfg = self.cfg or NonidealityConfig.ideal()
        f_base = cfg.f_base
        self.last_scale = 1.0
        if bandwidth_exceeded(inst, cfg):
            scaled = scale_instance(inst, cfg.bandwidth_f_star / cfg.f_base, _SQUEEZE_MARGIN)
            self.last_scale = scaled.scale
            f_base = scaled.scale * cfg.f_base
        cfg_eff = replace(cfg, f_base=f_base)
        spec = self.fspec or FilterSpec(kind="brickwall", cutoff_f0=0.5 * f_base)
        thr = self.threshold or auto_threshold(inst, spec)
        return decide_analog(inst, cfg_eff, spec, thr).answer == "YES"


def extract_witness(f: CnfFormula, oracle: OracleBackend) -> Optional[Assignment]:
    """Self-reduction: decision oracle to satisfying assignment.

    Returns None when the initial oracle call rejects the formula's
    reduction.  Otherwise fixes variables 1..num_vars in order, querying the
    oracle once per variable, and verifies the result against the original
    clauses before returning.
    """
    prefix: list[bool] = []

    def is_sat(formula: CnfFormula) -> bool:
        inst, _ = sat_to_partition(formula)
        return oracle.decide(inst)

    try:
        if not is_sat(f):
            return None
        g = f
        for var in range(1, f.num_vars + 1):
            g_true = simplify(g, var, True)
            if is_sat(g_true):
                g = g_true
                prefix.append(True)
            else:
                g = simplify(g, var, False)
                prefix.append(False)
    except (GridTooLargeError, ReductionOverflowError, InstanceTooLargeError) as exc:
        raise ExtractionError(f"oracle failed after fixing {len(prefix)} variables: {exc}",
                              partial=tuple(prefix)) from exc
    assignment = Assignment(tuple(prefix))
    if not evaluate(f, assignment.values):
        raise ExtractionError("extraction produced a non-satisfying assignment",
                              partial=tuple(prefix))
    return assignment


def format_solution(assignment: Optional[Assignment]) -> str:
    """DIMACS-style solution lines."""
    if assignment is None:
        return "s UNSATISFIABLE\n"
    lits = " ".join(str(i + 1 if v else -(i + 1)) for i, v in enumerate(assignment.values))
    return f"s SATISFIABLE\nv {lits} 0\n"
