"""Dense-grid simulation of the four-quadrant multiplier cascade.

Every block is memoryless except the output bandwidth pole, so the chain is
evaluated pointwise on a shared time grid; the pole is applied per stage in
the frequency domain.  The grid always spans whole alignment periods with an
integer number of points per period, which keeps FFT bins exactly on the
product harmonics for nominal (error-free) frequencies.  The per-period
count is ``oversample * total / gcd`` rounded up to the next 2·3·5·7-smooth
integer, so every stage's FFT runs at a length numpy transforms quickly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence, Union

import numpy as np

from .instances import CpiInstance, alignment_time

PerStage = Union[float, Sequence[float]]

BANDWIDTH_MODELS = ("one-pole", "hard", "none")

# Largest grid simulated per alignment period (16 MB per node array).
MAX_GRID_POINTS = 2_000_000


class BandwidthError(RuntimeError):
    """Instance frequencies exceed the multiplier bandwidth in strict mode."""


class GridTooLargeError(ValueError):
    """The instance's dense grid exceeds `MAX_GRID_POINTS` per period."""


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


@dataclass(eq=False)
class PipelineTrace:
    """All node voltages of one cascade run.

    ``mult_outputs`` are taken at the multiplier pins (before the following
    amplifier); ``stage_outputs`` after each multiplier+amplifier pair.
    """

    sources: list[Signal]
    mult_outputs: list[Signal]
    stage_outputs: list[Signal]
    final: Signal
    bandwidth_warning: bool = False


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


def check_grid(inst: CpiInstance, cfg: NonidealityConfig) -> None:
    """Refuse an instance whose grid exceeds `MAX_GRID_POINTS` per period."""
    points = points_per_period(inst, cfg)
    if points > MAX_GRID_POINTS:
        raise GridTooLargeError(f"instance needs {points} grid points per period "
                                f"(limit {MAX_GRID_POINTS}); magnitude too large to simulate")


def synthesize_sources(inst: CpiInstance, cfg: NonidealityConfig,
                       periods: int = 1) -> list[Signal]:
    """Cosine sources on a common grid spanning whole alignment periods.

    Frequencies are ``f_base * a_i * (1 + eps_i)`` with relative Gaussian
    errors ``eps_i``, phases are Gaussian; both draws are deterministic per
    seed.  The grid resolves the highest nominal product harmonic with at
    least ``oversample`` points per cycle; `points_per_period` rounds the
    count per period up to a 2·3·5·7-smooth length for the FFTs.
    """
    if periods < 1:
        raise ValueError("periods must be at least 1")
    t_align = float(alignment_time(inst)) / cfg.f_base
    f_max = inst.total * cfg.f_base
    per_period = points_per_period(inst, cfg)
    dt = t_align / per_period
    m = periods * per_period
    t = dt * np.arange(m)

    rng = np.random.default_rng([cfg.seed, 101])
    eps = rng.normal(0.0, cfg.freq_error_sigma, inst.n)
    phases = rng.normal(0.0, cfg.phase_error_sigma, inst.n)

    signals = []
    for i, a in enumerate(inst.values):
        amp = _per_stage(cfg.source_amplitude, i)
        f = cfg.f_base * a * (1.0 + eps[i])
        samples = amp * np.cos(2.0 * math.pi * f * t + phases[i])
        signals.append(Signal(t0=0.0, dt=dt, samples=samples,
                              f_max_nominal=f_max, alignment_period=t_align))
    return signals


def _apply_bandwidth(samples: np.ndarray, dt: float, cfg: NonidealityConfig) -> np.ndarray:
    if cfg.bandwidth_model == "none" or not math.isfinite(cfg.bandwidth_f_star):
        return samples
    spec = np.fft.rfft(samples)
    freqs = np.fft.rfftfreq(len(samples), d=dt)
    if cfg.bandwidth_model == "one-pole":
        spec *= 1.0 / np.sqrt(1.0 + (freqs / cfg.bandwidth_f_star) ** 2)
    else:  # hard cutoff
        spec[freqs > cfg.bandwidth_f_star] = 0.0
    return np.fft.irfft(spec, n=len(samples))


def multiply_stage(x: Signal, y: Signal, cfg: NonidealityConfig, stage: int = 0) -> Signal:
    """One four-quadrant multiplier: scaled product plus offsets, Z and noise.

    Order of effects: input offsets -> product * mult_scale -> output offset
    + Z + noise -> supply clamp -> output bandwidth pole (clamped again, the
    pin cannot leave the rails).
    """
    _check_same_grid(x, y)
    off_in = _per_stage(cfg.mult_input_offset, stage)
    off_out = _per_stage(cfg.mult_output_offset, stage)
    z = _per_stage(cfg.z_compensation, stage) if len(cfg.z_compensation) else 0.0
    out = (x.samples + off_in) * (y.samples + off_in) * cfg.mult_scale + off_out + z
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng([cfg.seed, 104729, stage])
        out = out + rng.normal(0.0, cfg.noise_sigma, len(out))
    out = np.clip(out, -cfg.supply_voltage, cfg.supply_voltage)
    out = _apply_bandwidth(out, x.dt, cfg)
    out = np.clip(out, -cfg.supply_voltage, cfg.supply_voltage)
    return Signal(t0=x.t0, dt=x.dt, samples=out, f_max_nominal=x.f_max_nominal,
                  alignment_period=x.alignment_period)


def amplify(x: Signal, cfg: NonidealityConfig) -> Signal:
    """Non-inverting amplifier stage: gain, offset, rail clamp."""
    out = np.clip(cfg.amp_gain * x.samples + cfg.amp_offset,
                  -cfg.supply_voltage, cfg.supply_voltage)
    return Signal(t0=x.t0, dt=x.dt, samples=out, f_max_nominal=x.f_max_nominal,
                  alignment_period=x.alignment_period)


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
    source straight through.  The bandwidth warning flags instances whose
    summed frequency exceeds the multiplier limit.

    Raises:
        GridTooLargeError: before any synthesis, when the grid would exceed
            `MAX_GRID_POINTS` per period (see `check_grid`).
    """
    _validate_stage_sequences(cfg, inst.n)
    check_grid(inst, cfg)
    sources = synthesize_sources(inst, cfg, periods=periods)
    warning = math.isfinite(cfg.bandwidth_f_star) and inst.total * cfg.f_base > cfg.bandwidth_f_star

    mult_outputs: list[Signal] = []
    stage_outputs: list[Signal] = []
    acc = sources[0]
    for k in range(1, inst.n):
        m_out = multiply_stage(acc, sources[k], cfg, stage=k - 1)
        mult_outputs.append(m_out)
        acc = amplify(m_out, cfg)
        stage_outputs.append(acc)
    return PipelineTrace(sources=sources, mult_outputs=mult_outputs,
                         stage_outputs=stage_outputs, final=acc,
                         bandwidth_warning=warning)


def volts_csv(times: Sequence[float], volts: Sequence[float]) -> str:
    """Two-column export: time_s, volts."""
    rows = ["time_s,volts"]
    for t, v in zip(times, volts):
        rows.append(f"{t:.12g},{v:.12g}")
    return "\n".join(rows) + "\n"


def trace_to_csvs(trace: PipelineTrace) -> dict[str, str]:
    """One CSV per node: sources, multiplier pins, stage outputs."""
    files = {}
    for i, sig in enumerate(trace.sources, start=1):
        files[f"source{i}.csv"] = volts_csv(sig.times(), sig.samples)
    for i, sig in enumerate(trace.mult_outputs, start=1):
        files[f"mult{i}.csv"] = volts_csv(sig.times(), sig.samples)
    for i, sig in enumerate(trace.stage_outputs, start=1):
        files[f"stage{i}.csv"] = volts_csv(sig.times(), sig.samples)
    return files


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
