"""Dense-grid simulation of the four-quadrant multiplier cascade.

Every block is memoryless except the output bandwidth pole, so the chain is
evaluated pointwise on a shared time grid; the pole is applied per stage in
the frequency domain.  The grid always spans whole alignment periods with an
integer number of points per period, which keeps FFT bins exactly on the
product harmonics for nominal (error-free) frequencies.  The per-period
count is ``oversample * total / gcd`` rounded up to the next 2·3·5·7-smooth
integer, so every stage's FFT runs at a length numpy transforms quickly.

`run_cascade` streams like the hardware: one signal is in flight, each
source is synthesised only when its stage needs it, and each stage leaves a
`StageSummary` instead of its node arrays.  Peak memory is a handful of grid
arrays whatever the number of values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .instances import CpiInstance, alignment_time

PerStage = Union[float, Sequence[float]]

BANDWIDTH_MODELS = ("one-pole", "hard", "none")

# Largest grid simulated, over all periods of a run (16 MB per grid array).
MAX_GRID_POINTS = 2_000_000


class BandwidthError(RuntimeError):
    """Instance frequencies exceed the multiplier bandwidth in strict mode."""


class GridTooLargeError(ValueError):
    """A run's dense grid exceeds `MAX_GRID_POINTS`."""


@dataclass(frozen=True)
class NonidealityConfig:
    """Every imperfection knob of the simulated signal chain.

    Scalars apply uniformly; ``mult_output_offset``, ``mult_input_offset``
    and ``source_amplitude`` also accept per-stage / per-source sequences.
    ``z_compensation`` is per stage (empty means no compensation).
    """

    f_base: float = 10_000.0          # Hz per instance unit
    supply_voltage: float = 10.0
    source_amplitude: PerStage = 1.0
    mult_scale: float = 0.1           # x*y/10 multiplier law
    mult_output_offset: PerStage = 0.0
    mult_input_offset: PerStage = 0.0
    z_compensation: Sequence[float] = ()
    amp_gain: float = 10.0
    amp_offset: float = 0.0
    bandwidth_f_star: float = 120_000.0
    bandwidth_model: str = "one-pole"
    freq_error_sigma: float = 0.0     # relative
    phase_error_sigma: float = 0.0    # radians
    noise_sigma: float = 0.0          # volts per sample
    oversample: int = 16              # grid points per shortest harmonic period
    seed: int = 0

    def __post_init__(self) -> None:
        if self.oversample < 4:
            raise ValueError("oversample must be at least 4")
        if self.bandwidth_model not in BANDWIDTH_MODELS:
            raise ValueError(f"bandwidth_model must be one of {BANDWIDTH_MODELS}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("source_amplitude", "mult_output_offset", "mult_input_offset",
                     "z_compensation"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)):
                object.__setattr__(self, name, tuple(float(x) for x in v))

    @classmethod
    def ideal(cls, seed: int = 0, **overrides) -> "NonidealityConfig":
        """Error-free configuration: no offsets, no noise, unlimited bandwidth."""
        return cls(bandwidth_model="none", bandwidth_f_star=math.inf,
                   seed=seed, **overrides)


@dataclass(frozen=True, eq=False)
class Signal:
    """Uniformly sampled voltage trace on the dense internal grid."""

    t0: float
    dt: float
    samples: np.ndarray
    f_max_nominal: float
    alignment_period: float | None = None

    @property
    def m(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return self.m * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.m)


@dataclass(frozen=True)
class StageSummary:
    """What one multiplier+amplifier stage did, taken as the signal passed.

    ``pin_dc`` is the mean of the multiplier pin (before the amplifier), the
    DC that Z compensation cancels.  ``clip_fraction`` is the share of stage
    output samples sitting at ±``supply_voltage``; ``out_min`` and
    ``out_max`` bound the stage output.
    """

    pin_dc: float
    clip_fraction: float
    out_min: float
    out_max: float


@dataclass(eq=False)
class PipelineTrace:
    """Result of one cascade run: the final signal and one summary per stage.

    Only ``final`` is kept as an array; ``stages[k]`` summarises stage k+1
    (n-1 entries, none for a single value).
    """

    final: Signal
    bandwidth_warning: bool = False
    stages: tuple[StageSummary, ...] = ()
    # always empty: node arrays are not kept, but perfbench/tracer.py reads these names
    sources = mult_outputs = stage_outputs = ()


def _per_stage(value: PerStage, stage: int) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value[stage])
    except IndexError:
        raise ValueError(f"per-stage sequence too short for stage {stage}") from None


def _check_same_grid(x: Signal, y: Signal) -> None:
    if x.m != y.m or abs(x.dt - y.dt) > 1e-15 * x.dt or abs(x.t0 - y.t0) > 1e-12:
        raise ValueError("signals are not on the same grid")


def next_smooth_length(n: int) -> int:
    """Smallest 2·3·5·7-smooth integer at or above ``n`` (1 for n <= 1).

    FFTs of such lengths avoid numpy's slow path for large prime factors.
    """
    best = 1 << max(n - 1, 0).bit_length()
    p7 = 1
    while p7 < best:
        p5 = p7
        while p5 < best:
            p3 = p5
            while p3 < best:
                # smallest power-of-two multiple of p3 reaching n
                best = min(best, p3 << (-(-n // p3) - 1).bit_length())
                p3 *= 3
            p5 *= 5
        p7 *= 7
    return best


def points_per_period(inst: CpiInstance, cfg: NonidealityConfig) -> int:
    """Grid points simulated per alignment period.

    The oversampled harmonic count ``oversample * total / gcd`` rounded up
    by `next_smooth_length`; every grid-size guard checks this number.
    """
    return next_smooth_length(cfg.oversample * (inst.total // inst.gcd))


def check_grid(inst: CpiInstance, cfg: NonidealityConfig, periods: int = 1) -> None:
    """Refuse a run whose grid, ``periods`` alignment periods long, exceeds `MAX_GRID_POINTS`."""
    points = periods * points_per_period(inst, cfg)
    if points > MAX_GRID_POINTS:
        span = "per period" if periods == 1 else f"over {periods} periods"
        raise GridTooLargeError(f"instance needs {points} grid points {span} "
                                f"(limit {MAX_GRID_POINTS}); magnitude too large to simulate")


def bandwidth_exceeded(inst: CpiInstance, cfg: NonidealityConfig) -> bool:
    """True when the instance's summed frequency lies above the multiplier bandwidth."""
    return math.isfinite(cfg.bandwidth_f_star) and inst.total * cfg.f_base > cfg.bandwidth_f_star


def _source_maker(inst: CpiInstance, cfg: NonidealityConfig,
                  periods: int) -> Callable[[int], Signal]:
    """Draw every source's frequency error and phase, build the time grid, return ``source(i)``.

    The draws come first, in one fixed order, so synthesising the sources
    one at a time gives the same samples as synthesising them all.
    """
    if periods < 1:
        raise ValueError("periods must be at least 1")
    t_align = float(alignment_time(inst)) / cfg.f_base
    f_max = inst.total * cfg.f_base
    per_period = points_per_period(inst, cfg)
    dt = t_align / per_period
    t = dt * np.arange(periods * per_period)

    rng = np.random.default_rng([cfg.seed, 101])
    eps = rng.normal(0.0, cfg.freq_error_sigma, inst.n)
    phases = rng.normal(0.0, cfg.phase_error_sigma, inst.n)

    def source(i: int) -> Signal:
        f = cfg.f_base * inst.values[i] * (1.0 + eps[i])
        samples = 2.0 * math.pi * f * t
        samples += phases[i]
        np.cos(samples, out=samples)
        samples *= _per_stage(cfg.source_amplitude, i)
        return Signal(t0=0.0, dt=dt, samples=samples,
                      f_max_nominal=f_max, alignment_period=t_align)

    return source


def synthesize_sources(inst: CpiInstance, cfg: NonidealityConfig,
                       periods: int = 1) -> list[Signal]:
    """Cosine sources on a common grid spanning whole alignment periods.

    Frequencies are ``f_base * a_i * (1 + eps_i)`` with relative Gaussian
    errors ``eps_i``, phases are Gaussian; both draws are deterministic per
    seed.  The grid resolves the highest nominal product harmonic with at
    least ``oversample`` points per cycle; `points_per_period` rounds the
    count per period up to a 2·3·5·7-smooth length for the FFTs.
    `run_cascade` synthesises the same sources one at a time.
    """
    source = _source_maker(inst, cfg, periods)
    return [source(i) for i in range(inst.n)]


def _pole_response(m: int, dt: float, cfg: NonidealityConfig) -> Optional[np.ndarray]:
    """The output pole on an m-point rfft: per-bin gains (one-pole), a mask
    of the bins it zeroes (hard), or None without a pole."""
    if cfg.bandwidth_model == "none" or not math.isfinite(cfg.bandwidth_f_star):
        return None
    freqs = np.fft.rfftfreq(m, d=dt)
    if cfg.bandwidth_model == "one-pole":
        return 1.0 / np.sqrt(1.0 + (freqs / cfg.bandwidth_f_star) ** 2)
    return freqs > cfg.bandwidth_f_star


def multiply_stage(x: Signal, y: Signal, cfg: NonidealityConfig, stage: int = 0,
                   pole: Optional[np.ndarray] = None) -> Signal:
    """One four-quadrant multiplier: scaled product plus offsets, Z and noise.

    Order of effects: input offsets -> product * mult_scale -> output offset
    + Z + noise -> supply clamp -> output bandwidth pole (clamped again, the
    pin cannot leave the rails).  ``pole`` is `_pole_response` for this
    grid, computed here when not given.
    """
    _check_same_grid(x, y)
    off_in = _per_stage(cfg.mult_input_offset, stage)
    off_out = _per_stage(cfg.mult_output_offset, stage)
    z = _per_stage(cfg.z_compensation, stage) if len(cfg.z_compensation) else 0.0
    out = x.samples + off_in
    out *= y.samples + off_in
    out *= cfg.mult_scale
    out += off_out
    out += z
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng([cfg.seed, 104729, stage])
        out += rng.normal(0.0, cfg.noise_sigma, len(out))
    np.clip(out, -cfg.supply_voltage, cfg.supply_voltage, out=out)
    if pole is None:
        pole = _pole_response(x.m, x.dt, cfg)
    if pole is not None:
        spec = np.fft.rfft(out)
        if pole.dtype == bool:
            spec[pole] = 0.0
        else:
            spec *= pole
        out = np.fft.irfft(spec, n=len(out))
        np.clip(out, -cfg.supply_voltage, cfg.supply_voltage, out=out)
    return Signal(t0=x.t0, dt=x.dt, samples=out, f_max_nominal=x.f_max_nominal,
                  alignment_period=x.alignment_period)


def amplify(x: Signal, cfg: NonidealityConfig) -> Signal:
    """Non-inverting amplifier stage: gain, offset, rail clamp."""
    out = cfg.amp_gain * x.samples
    out += cfg.amp_offset
    np.clip(out, -cfg.supply_voltage, cfg.supply_voltage, out=out)
    return Signal(t0=x.t0, dt=x.dt, samples=out, f_max_nominal=x.f_max_nominal,
                  alignment_period=x.alignment_period)


def _summarize(pin: Signal, out: Signal, cfg: NonidealityConfig) -> StageSummary:
    v = cfg.supply_voltage
    lo, hi = float(out.samples.min()), float(out.samples.max())
    clipped = 0
    if lo <= -v or hi >= v:
        clipped = np.count_nonzero(out.samples <= -v) + np.count_nonzero(out.samples >= v)
    return StageSummary(pin_dc=float(np.mean(pin.samples)), clip_fraction=clipped / out.m,
                        out_min=lo, out_max=hi)


def _validate_stage_sequences(cfg: NonidealityConfig, n: int) -> None:
    n_stages = n - 1
    for name in ("mult_output_offset", "mult_input_offset"):
        v = getattr(cfg, name)
        if not isinstance(v, (int, float)) and len(v) != n_stages:
            raise ValueError(f"{name} sequence must have {n_stages} entries")
    if len(cfg.z_compensation) not in (0, n_stages):
        raise ValueError(f"z_compensation must have 0 or {n_stages} entries")
    if not isinstance(cfg.source_amplitude, (int, float)) and len(cfg.source_amplitude) != n:
        raise ValueError(f"source_amplitude sequence must have {n} entries")


def run_cascade(inst: CpiInstance, cfg: NonidealityConfig, periods: int = 1) -> PipelineTrace:
    """Fold the sources left to right through multiplier+amplifier stages.

    An n-value instance runs n-1 stages; a single-value instance passes its
    source straight through.  The fold streams: all frequency errors and
    phases are drawn first, source k is synthesised only when stage k needs
    it, and each multiplier pin and stage output is reduced to a
    `StageSummary` and dropped.  The draws, operations and their order are
    those of `synthesize_sources`, `multiply_stage` and `amplify`, so the
    result is bit-identical to folding those by hand.  At most about seven
    grid arrays are alive at once (time vector, accumulator, source, pin,
    noise or the pole's spectrum and inverse, and the pole's gains),
    whatever n is: 6.8 at 352,800 points with the pole and noise.  The
    bandwidth warning flags instances whose summed frequency exceeds the
    multiplier limit (`bandwidth_exceeded`).

    Raises:
        GridTooLargeError: before any synthesis, when the grid of ``periods``
            alignment periods would exceed `MAX_GRID_POINTS` (see `check_grid`).
    """
    _validate_stage_sequences(cfg, inst.n)
    check_grid(inst, cfg, periods)
    source = _source_maker(inst, cfg, periods)
    acc = source(0)
    pole = _pole_response(acc.m, acc.dt, cfg)
    stages = []
    for k in range(1, inst.n):
        pin = multiply_stage(acc, source(k), cfg, stage=k - 1, pole=pole)
        del acc
        acc = amplify(pin, cfg)
        stages.append(_summarize(pin, acc, cfg))
        del pin
    return PipelineTrace(final=acc, bandwidth_warning=bandwidth_exceeded(inst, cfg),
                         stages=tuple(stages))


def volts_csv(times: Sequence[float], volts: Sequence[float]) -> str:
    """Two-column export: time_s, volts."""
    rows = ["time_s,volts"]
    for t, v in zip(times, volts):
        rows.append(f"{t:.12g},{v:.12g}")
    return "\n".join(rows) + "\n"


_SEQ_FIELDS = ("source_amplitude", "mult_output_offset", "mult_input_offset",
               "z_compensation")
_INT_FIELDS = ("oversample", "seed")


def config_to_text(cfg: NonidealityConfig) -> str:
    """Flat key=value serialization, one field per line, sorted."""
    lines = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            lines.append(f"{f.name}={','.join(f'{x:.12g}' for x in v)}")
        elif isinstance(v, float):
            lines.append(f"{f.name}={v:.12g}")
        else:
            lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


def parse_kv(text: str) -> dict[str, str]:
    """Parse ``key=value`` lines; blank lines and ``#`` comments are skipped.

    Raises:
        ValueError: on a line without ``=``.
    """
    items = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"bad config line {line!r}")
        items[key.strip()] = value.strip()
    return items


def config_field_names() -> set[str]:
    return {f.name for f in fields(NonidealityConfig)}


def config_from_items(items: dict[str, str],
                      base: NonidealityConfig | None = None) -> NonidealityConfig:
    """Build a config from string key=value pairs (e.g. a parsed config file)."""
    cfg = base or NonidealityConfig()
    kwargs = {}
    for key, raw in items.items():
        if key not in config_field_names():
            raise ValueError(f"unknown config key {key!r}")
        if key == "bandwidth_model":
            kwargs[key] = raw.strip()
        elif key in _INT_FIELDS:
            kwargs[key] = int(raw)
        elif key in _SEQ_FIELDS and ("," in raw or key == "z_compensation"):
            parts = [p for p in raw.split(",") if p.strip()]
            kwargs[key] = tuple(float(p) for p in parts)
        else:
            kwargs[key] = float(raw)
    return replace(cfg, **kwargs)
