"""Integer frequency instances and their timing arithmetic.

An instance is an ordered tuple of positive integers (a_1, ..., a_n).  The
signal of interest is the product of cos(a_i * t); the decision question is
whether its mean over a full period is nonzero, which happens exactly when
some subset of the a_i sums to half the total.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

# Signed sums must stay inside int64 for the vectorized solvers.
MAX_TOTAL = 2**62
# Draws `random_instance` makes before giving up on the requested label.
MAX_TRIES = 10_000


class InstanceError(ValueError):
    """Malformed or out-of-range instance input."""


class GenerationError(RuntimeError):
    """Random instance generation exhausted its retry budget."""


@dataclass(frozen=True)
class CpiInstance:
    """An ordered tuple of positive integer frequencies."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = []
        for v in self.values:
            iv = int(v)
            if iv != v:
                raise InstanceError(f"non-integer value {v!r}")
            if iv < 1:
                raise InstanceError(f"values must be positive, got {iv}")
            vals.append(iv)
        if not vals:
            raise InstanceError("instance must contain at least one value")
        if sum(vals) >= MAX_TOTAL:
            raise InstanceError("sum of values exceeds the representable budget")
        object.__setattr__(self, "values", tuple(vals))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def total(self) -> int:
        return sum(self.values)

    @property
    def gcd(self) -> int:
        return math.gcd(*self.values)


def parse_instance(text: str) -> CpiInstance:
    """Parse whitespace/comma separated integers into an instance.

    Signs are dropped (the cosine is even), order is preserved.

    Raises:
        InstanceError: on empty input, a zero entry, a non-integer token,
            or a sum that exceeds the representable budget.
    """
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise InstanceError("empty instance")
    values = []
    for tok in tokens:
        try:
            v = int(tok)
        except ValueError:
            raise InstanceError(f"non-integer token {tok!r}") from None
        if v == 0:
            raise InstanceError("zero frequency is not a valid instance entry")
        values.append(abs(v))
    return CpiInstance(tuple(values))


def serialize_instance(inst: CpiInstance) -> str:
    """Canonical serialization: space-separated values."""
    return " ".join(str(v) for v in inst.values)


def load_instances(text: str) -> list[CpiInstance]:
    """Parse an instance file: one instance per line, ``#`` comments."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(parse_instance(line))
    return out


def scale_instance(inst: CpiInstance, f_star: float, margin: float) -> float:
    """The factor that squeezes all frequencies below a bandwidth limit ``f_star``.

    The factor is ``margin * f_star / sum(values)``, so the scaled sum is
    strictly below ``f_star``.  Scaling never changes the yes/no answer, and
    distinct scaled frequencies stay at least the factor apart.
    """
    if f_star <= 0:
        raise ValueError("f_star must be positive")
    if not 0 < margin < 1:
        raise ValueError("margin must lie in (0, 1)")
    return margin * f_star / inst.total


def alignment_time(inst: CpiInstance) -> Fraction:
    """First time (in instance units) at which all cosines realign.

    Equals ``1/gcd(values)``; kept rational so callers can rely on
    ``alignment_time(inst) * gcd == 1`` exactly.
    """
    return Fraction(1, inst.gcd)


def nyquist_frequency(inst: CpiInstance) -> int:
    """Sampling rate that resolves the highest product harmonic: ``2*sum``."""
    return 2 * inst.total


def random_instance(n: int, max_mag: int = 50, kind: str = "YES", seed: int = 0) -> CpiInstance:
    """Generate an instance with a known yes/no label, verified digitally.

    YES instances are built by drawing ``n - 1`` values and repairing the
    last one to balance a random split.  NO instances come from rejection
    sampling.  Both are checked with the exact solver before returning.

    Raises:
        GenerationError: when no instance with the requested label exists
            within `MAX_TRIES` draws (e.g. NO with n=2, max_mag=1).
    """
    from .exact import solve_exact  # deferred: exact imports this module

    label = kind.upper()
    if label not in ("YES", "NO"):
        raise ValueError(f"kind must be YES or NO, got {kind!r}")
    if max_mag < 1:
        raise ValueError("max_mag must be at least 1")
    if label == "YES" and n < 2:
        raise ValueError("a YES instance needs at least two values")
    if n < 1:
        raise ValueError("n must be at least 1")

    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        if label == "YES":
            head = [rng.randint(1, max_mag) for _ in range(n - 1)]
            signs = [rng.choice((1, -1)) for _ in range(n - 1)]
            imbalance = abs(sum(s * a for s, a in zip(signs, head)))
            if not 1 <= imbalance <= max_mag:
                continue
            values = head + [imbalance]
            rng.shuffle(values)
        else:
            values = [rng.randint(1, max_mag) for _ in range(n)]
        inst = CpiInstance(tuple(values))
        if solve_exact(inst) == (label == "YES"):
            return inst
    raise GenerationError(f"could not generate a {label} instance "
                          f"(n={n}, max_mag={max_mag}) in {MAX_TRIES} tries")
