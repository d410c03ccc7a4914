"""CNF parsing, the SAT-to-PARTITION reduction and witness extraction.

The reduction gives each clause one base-7 digit and each variable one
signed number, whose side of the split is its value, beside two slack
numbers per clause and one pad; columns never carry.  Satisfying
assignments come out of the decision oracle by fixing variables one at a
time and re-reducing the simplified formula: at most 1 + num_vars oracle
calls.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import exact
from .calibration import Decision, DecisionThreshold, chain_digest, decide_analog
from .dsp import FilterSpec
from .instances import MAX_TOTAL, CpiInstance, scale_instance
from .pipeline import GridTooLargeError, NonidealityConfig, bandwidth_exceeded, from_items


class ParseError(ValueError):
    """Malformed DIMACS input."""


class ReductionOverflowError(OverflowError):
    """The digit construction exceeds the integer budget."""

    def __init__(self, required_bits: int, budget_bits: int):
        self.required_bits = required_bits
        super().__init__(f"reduction needs {required_bits}-bit integers "
                         f"(budget is {budget_bits} bits)")


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
        if self.num_vars < 0:
            raise ParseError(f"negative variable count {self.num_vars}")
        clauses = tuple(tuple(cl) for cl in self.clauses)
        for cl in clauses:
            for lit in cl:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ParseError(f"literal {lit} out of range 1..{self.num_vars}")
        object.__setattr__(self, "clauses", clauses)


def parse_dimacs(text: str, strict: bool = False) -> CnfFormula:
    """Parse DIMACS CNF ('p cnf V C' header, zero-terminated clauses).

    A ``%`` line ends the clause data: SATLIB's files follow it with a ``0``
    line that is not an empty clause.
    """
    num_vars: Optional[int] = None
    declared = 0
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("%"):
            break
        if not s or s.startswith("c"):
            continue
        if s.startswith("p"):
            if num_vars is not None:
                raise ParseError(f"second header line: {s!r}")
            parts = s.split()
            try:
                if len(parts) != 4 or parts[1] != "cnf" or int(parts[3]) < 0:
                    raise ValueError
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


def _widen_to_3cnf(clauses: Sequence[tuple[int, ...]], next_var: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for clause in clauses:
        cur = list(dict.fromkeys(clause))  # dedupe, keep order
        while len(cur) > 3:
            out.append((cur[0], cur[1], next_var))
            cur = [-next_var] + cur[2:]
            next_var += 1
        out.append(tuple(cur))
    return out


# The finished instance's sum must stay below `MAX_TOTAL`: a sum of at most
# 62 bits is exactly `CpiInstance`'s int64 guard.
_BUDGET_BITS = (MAX_TOTAL - 1).bit_length()


def sat_to_partition(f: CnfFormula) -> CpiInstance:
    """Signed-digit reduction; the result is balanced iff ``f`` is satisfiable.

    Clause j of the widened formula weighs 7**j.  Positions follow the
    formula: one number per active variable in ascending order (fresh
    variables of widened clauses last), |sum_j (a_j - b_j) * 7**j| where a_j
    is 1 when the variable is in clause j and b_j when its negation is,
    left out when it is 0; then two slacks 7**j per clause; then one pad,
    sum_j (4 - |C_j|) * 7**j.  A formula with an empty clause gives ``1 2``,
    one without clauses ``1 1``.

    With the pad on the - side, a number on the + side reads "true" (or
    "false" when its sum was negated).  Column j then sums to twice (true
    literals + slacks on the + side - 3), which some slacks make 0 exactly
    when 1 to 3 of its literals are true; no column exceeds 6 in magnitude,
    so base 7 never carries and the sum is 0 exactly when every column is.

    Raises:
        ReductionOverflowError: when the instance's sum needs more bits than
            `CpiInstance`'s budget (the required width is reported).
    """
    if any(len(cl) == 0 for cl in f.clauses):
        return CpiInstance((1, 2))
    if not f.clauses:
        return CpiInstance((1, 1))

    max_var = max(abs(l) for cl in f.clauses for l in cl)
    clauses = _widen_to_3cnf(f.clauses, max_var + 1)
    weights = [7 ** j for j in range(len(clauses))]
    signed: dict[int, int] = {}
    for w, clause in zip(weights, clauses):  # widened clauses repeat no literal
        for lit in clause:
            signed[abs(lit)] = signed.get(abs(lit), 0) + (w if lit > 0 else -w)
    numbers = [abs(signed[v]) for v in sorted(signed) if signed[v]]
    numbers += [w for w in weights for _ in range(2)]
    numbers.append(sum((4 - len(cl)) * w for w, cl in zip(weights, clauses)))
    required_bits = sum(numbers).bit_length()
    if required_bits > _BUDGET_BITS:
        raise ReductionOverflowError(required_bits, _BUDGET_BITS)
    return CpiInstance(tuple(numbers))


# The oracle names `decide --oracle` and `sat --backend` take.
ORACLES = ("exact", "exact-dp", "exact-bf", "analog", "analog-ideal")

# Squeezed instances sum to this fraction of the multiplier bandwidth.
_SQUEEZE_MARGIN = 0.9


def _open_filter(cfg: NonidealityConfig, **fields) -> FilterSpec:
    """The `FilterSpec` of ``fields`` (`from_items`); left open, a brickwall at 0.5·f_base."""
    return from_items(FilterSpec, {"kind": "brickwall", "cutoff_f0": 0.5 * cfg.f_base, **fields})


@functools.cache
def _default_ideal_chain() -> tuple[NonidealityConfig, FilterSpec]:
    """The default ``analog-ideal`` chain, which the exact oracles name; built once."""
    chain = OracleBackend("analog-ideal")
    return chain.cfg, chain.fspec


@dataclass
class OracleBackend:
    """The PARTITION oracle for `decide` and `sat`, named by one of `ORACLES`.

    ``exact``/``exact-dp`` count or solve exactly, ``exact-bf`` enumerates;
    they drop ``cfg``, ``fspec`` and ``threshold`` and name the default ideal
    chain.  ``analog`` is the chain ``cfg``, ``fspec``, ``threshold``; its
    defaults, ``NonidealityConfig()``, `_open_filter` and `auto_threshold`,
    are the CLI's without ``--config``.  ``analog-ideal`` is the error-free
    chain with ``cfg``'s seed, ``f_base`` and ``oversample``, its brickwall
    at the lower of ``fspec``'s and the open filter's cutoff.  `digest` names
    the chain, `decision` answers ``cospart decide``; `decide` is a SAT call.
    """

    kind: str
    cfg: Optional[NonidealityConfig] = None
    fspec: Optional[FilterSpec] = None
    threshold: Optional[DecisionThreshold] = None
    calls: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ORACLES:
            raise ValueError(f"oracle {self.kind!r} is not one of {', '.join(ORACLES)}")
        if self.kind.startswith("exact"):
            (self.cfg, self.fspec), self.threshold = _default_ideal_chain(), None
            return
        cfg = self.cfg or NonidealityConfig()
        spec = self.fspec or _open_filter(cfg)
        if self.kind == "analog-ideal":
            cfg = NonidealityConfig.ideal(seed=cfg.seed, f_base=cfg.f_base,
                                          oversample=cfg.oversample)
            spec = _open_filter(cfg, cutoff_f0=min(spec.cutoff_f0, _open_filter(cfg).cutoff_f0))
        self.cfg, self.fspec = cfg, spec

    @property
    def digest(self) -> str:
        """The chain's `chain_digest`, the name every output of a run on it carries."""
        return chain_digest(self.cfg, self.fspec)

    def decision(self, inst: CpiInstance, seed: Optional[int] = None,
                 strict: bool = False) -> Decision:
        """The `Decision` ``cospart decide`` prints; never squeezed, never counted.

        The exact oracles answer from the sign of the counted `exact.ideal_dc`
        (`exact.solve_exact` past its guard, where the DC is NaN); ``exact-bf``
        from the DC its own enumeration counts (`exact.bruteforce_dc`).  Their cut is
        ``0.5**min(n+1, 60)``.  An analogue oracle runs `decide_analog` at
        ``seed`` (default ``cfg``'s) and ``strict``.
        """
        if self.kind.startswith("analog"):
            cfg = self.cfg if seed in (None, self.cfg.seed) else replace(self.cfg, seed=seed)
            return decide_analog(inst, cfg, self.fspec, self.threshold, strict=strict)
        if self.kind == "exact-bf":
            counted = exact.bruteforce_dc(inst)  # the independent enumeration's own count
        else:
            try:
                counted = exact.ideal_dc(inst)
            except exact.InstanceTooLargeError:
                counted = None  # beyond the meet-in-the-middle guard the DC is unknown
        # some sign vector balances exactly when the counted DC is above 0
        yes = exact.solve_exact(inst) if counted is None else counted > 0
        dc = math.nan if counted is None else float(counted)
        cut = 0.5 ** min(inst.n + 1, 60)
        return Decision(answer="YES" if yes else "NO", dc_measured=dc, cut=cut)

    def decide(self, inst: CpiInstance) -> bool:
        """One SAT oracle call, counted in ``calls``.

        The exact oracles take `exact.solve_exact`, the cheaper of the DP and
        meet-in-the-middle; ``exact-bf`` enumerates.  An analogue oracle
        squeezes an instance above the multiplier bandwidth, scaling ``f_base``
        and the cutoff by the squeeze factor; a calibrated threshold then refuses
        the squeezed chain (`ChainMismatchError`).
        """
        self.calls += 1
        if self.kind == "exact-bf":
            return exact.decide_bruteforce(inst)
        if self.kind.startswith("exact"):
            return exact.solve_exact(inst)
        cfg, spec = self.cfg, self.fspec
        if bandwidth_exceeded(inst, cfg):
            lam = scale_instance(inst, cfg.bandwidth_f_star / cfg.f_base, _SQUEEZE_MARGIN)
            cfg = replace(cfg, f_base=lam * cfg.f_base)
            spec = replace(spec, cutoff_f0=lam * spec.cutoff_f0)
        return decide_analog(inst, cfg, spec, self.threshold).answer == "YES"


def extract_witness(f: CnfFormula, oracle: OracleBackend) -> Optional[tuple[bool, ...]]:
    """Self-reduction: decision oracle to satisfying assignment.

    Returns None when the initial oracle call rejects the formula's
    reduction.  Otherwise fixes variables 1..num_vars in order, querying the
    oracle once per variable, and verifies the result against the original
    clauses before returning one boolean per variable, in variable order.

    The formula's own `ReductionOverflowError` is raised before any oracle
    call; a simplified formula reduces to numbers no wider.
    """
    first = sat_to_partition(f)
    prefix: list[bool] = []
    try:
        if not oracle.decide(first):
            return None
        g = f
        for var in range(1, f.num_vars + 1):
            g_true = simplify(g, var, True)
            if oracle.decide(sat_to_partition(g_true)):
                g = g_true
                prefix.append(True)
            else:
                g = simplify(g, var, False)
                prefix.append(False)
    except (GridTooLargeError, exact.InstanceTooLargeError) as exc:
        raise ExtractionError(f"oracle failed after fixing {len(prefix)} variables: {exc}",
                              partial=tuple(prefix)) from exc
    assignment = tuple(prefix)
    if not evaluate(f, assignment):
        raise ExtractionError("extraction produced a non-satisfying assignment",
                              partial=assignment)
    return assignment


def format_solution(assignment: Optional[tuple[bool, ...]]) -> str:
    """DIMACS-style solution lines for `extract_witness`'s result."""
    if assignment is None:
        return "s UNSATISFIABLE\n"
    lits = [str(i + 1 if v else -(i + 1)) for i, v in enumerate(assignment)]
    return f"s SATISFIABLE\nv {' '.join(lits + ['0'])}\n"
