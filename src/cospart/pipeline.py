"""Dense-grid simulation of the four-quadrant multiplier cascade.

Every block is memoryless except the output bandwidth pole, so the chain is
evaluated pointwise on a shared time grid; the pole is applied per stage in
the frequency domain by `zero_phase_filter`, a real gain per rfft bin, which
the decision low-pass (`dsp.apply_lowpass`) runs too.  The grid always spans
whole alignment periods with an integer number of points per period, which
keeps FFT bins exactly on the product harmonics for nominal (error-free)
frequencies.  The per-period count is ``oversample * total / gcd`` rounded
up to the next 2·3·5·7-smooth integer, so every stage's FFT runs at a length
numpy transforms quickly.

`run_cascade` streams like the hardware: one signal is in flight, and each
stage leaves its multiplier pin's DC instead of its node arrays.  A source
is a `Tone`, tables of about √m cos and sin values, made only when its
stage needs it; the stage's product forms its samples block by block, so no
source is ever a grid array.  The cascade is one loop on the caller's
thread, and each stage draws its own noise.  Peak memory is two and a half
grid arrays plus about 64 KB, whatever the number of values.  The cascade
is bit-identical to a hand fold of `synthesize_sources`, `multiply_stage`
and `amplify`, and a unit-amplitude source is within about 2e-14 V of the
exact cosine.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence, Union, get_type_hints

import numpy as np

from .instances import CpiInstance, alignment_time

PerStage = Union[float, Sequence[float]]

BANDWIDTH_MODELS = ("one-pole", "hard", "none")
_UNLIMITED = ("bandwidth_f_star", math.inf)  # the one non-finite float a field may hold

# Largest grid simulated, over all periods of a run (16 MB per grid array).
MAX_GRID_POINTS = 2_000_000


class BandwidthError(RuntimeError):
    """Instance frequencies exceed the multiplier bandwidth in strict mode."""


class GridTooLargeError(ValueError):
    """A run's dense grid exceeds `MAX_GRID_POINTS`."""


def _integral(name: str, value) -> int:
    """``value`` as an int when it equals one (16 or 16.0); else a ValueError naming ``name``."""
    if isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class NonidealityConfig:
    """Every imperfection knob of the simulated signal chain.

    Scalars apply uniformly; ``mult_output_offset``, ``mult_input_offset``
    and ``source_amplitude`` also accept per-stage / per-source sequences.
    ``z_compensation`` is per stage (empty means no compensation).  Fields
    are stored by `store_fields` (finite floats, but ``bandwidth_f_star=inf``);
    a non-positive ``f_base``, ``supply_voltage`` or ``bandwidth_f_star``, or
    a negative sigma or seed, also raises a ValueError naming its field.
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
        store_fields(self)
        for name in ("f_base", "supply_voltage", "bandwidth_f_star"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("freq_error_sigma", "phase_error_sigma", "noise_sigma", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)!r}")
        if self.oversample < 4:
            raise ValueError("oversample must be at least 4")
        if self.bandwidth_model not in BANDWIDTH_MODELS:
            raise ValueError(f"bandwidth_model must be one of {BANDWIDTH_MODELS}")

    @classmethod
    def ideal(cls, seed: int = 0, **overrides) -> "NonidealityConfig":
        """Error-free configuration: no offsets, no noise, unlimited bandwidth."""
        return cls(bandwidth_model="none", bandwidth_f_star=math.inf,
                   seed=seed, **overrides)


@dataclass(frozen=True, eq=False)
class Signal:
    """Voltage trace with sample i at time ``i * dt``; a trace spanning whole
    alignment periods names the period, which sampling snaps to."""

    dt: float
    samples: np.ndarray
    alignment_period: float | None = None

    @property
    def m(self) -> int:
        return len(self.samples)

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.m)


@dataclass(eq=False)
class PipelineTrace:
    """Result of one cascade run: the final signal and each stage's pin DC.

    Only ``final`` is kept as an array; ``pin_dc[k]`` is the mean of stage
    k+1's multiplier pin, before the amplifier: the DC that Z compensation
    cancels (n-1 entries, none for a single value).
    """

    final: Signal
    pin_dc: tuple[float, ...] = ()
    # always empty: node arrays are not kept, but perfbench/tracer.py reads these names
    sources = mult_outputs = stage_outputs = ()


def _per_stage(value: PerStage, stage: int) -> float:
    """``value`` at ``stage``: a scalar at every stage, an empty sequence (no Z) 0."""
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value[stage]) if len(value) else 0.0
    except IndexError:
        raise ValueError(f"per-stage sequence too short for stage {stage}") from None


def _check_same_grid(x: Signal, y: Signal) -> None:
    if x.m != y.m or abs(x.dt - y.dt) > 1e-15 * x.dt:
        raise ValueError("signals are not on the same grid")


@functools.lru_cache
def next_smooth_length(n: int) -> int:
    """Smallest 2·3·5·7-smooth integer at or above ``n`` (1 for n <= 1).

    FFTs of such lengths avoid numpy's slow path for large prime factors.
    Cached: one analogue decision asks for its grid's length three times.
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


def validate_stage_sequences(cfg: NonidealityConfig, n: int) -> None:
    """Refuse a per-stage or per-source sequence whose length does not fit ``n`` values."""
    n_stages = n - 1
    for name in ("mult_output_offset", "mult_input_offset"):
        v = getattr(cfg, name)
        if not isinstance(v, (int, float)) and len(v) != n_stages:
            raise ValueError(f"{name} sequence must have {n_stages} entries")
    if len(cfg.z_compensation) not in (0, n_stages):
        raise ValueError(f"z_compensation must have 0 or {n_stages} entries")
    if not isinstance(cfg.source_amplitude, (int, float)) and len(cfg.source_amplitude) != n:
        raise ValueError(f"source_amplitude sequence must have {n} entries")


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


def check_bandwidth(inst: CpiInstance, cfg: NonidealityConfig) -> None:
    """Raise `BandwidthError`, naming both frequencies, when `bandwidth_exceeded`."""
    if bandwidth_exceeded(inst, cfg):
        raise BandwidthError(f"sum of frequencies {inst.total * cfg.f_base:.6g} Hz exceeds "
                             f"f*={cfg.bandwidth_f_star:.6g} Hz")


# Samples a tone forms per step, in one reused scratch buffer (64 KB).
_BLOCK_POINTS = 8192


def _turns(count: int, cycles: np.longdouble) -> np.ndarray:
    """The angles 2π·frac(k·cycles) for k < count, each in [-π, π].

    The product and the reduction run in extended precision (where numpy's
    longdouble has it), so each angle is within a few float64 ulps of exact.
    """
    k = np.arange(count, dtype=np.longdouble)
    k *= cycles
    k -= np.rint(k)
    return 2.0 * math.pi * k.astype(float)


@dataclass(frozen=True, eq=False)
class Tone:
    """A cosine source, ``amplitude·cos(2π·freq·i·dt + phase)`` for i < m, as tables.

    Tables of about √m values stand for the m samples.  ``inner`` holds cos
    and sin of the angle a_r = r·dt·2π·freq within a block of ``width``
    samples (shape 2 × width); ``starts`` holds amplitude·cos and
    −amplitude·sin of block j's start angle b_j = j·width·dt·2π·freq + phase
    (shape blocks × 2).  The sample at i = j·width + r is ``starts[j] @
    inner[:, r]``, cos(a_r + b_j) by angle addition.  `signal` and
    `multiply_into` form the samples whole blocks at a time, by one matrix
    product per step into the same scratch, so the two give the same bits
    and the tone never exists as a grid array.  `signal`'s `Signal` has the
    tone's ``dt`` and ``alignment_period``.
    """

    freq: float
    phase: float
    amplitude: float
    dt: float
    m: int
    alignment_period: float
    inner: np.ndarray
    starts: np.ndarray

    @classmethod
    def make(cls, freq: float, phase: float, amplitude: float, dt: float, m: int,
             alignment_period: float) -> "Tone":
        width = max(1, math.isqrt(m))
        step = np.longdouble(dt) * np.longdouble(freq)  # cycles per grid point
        a = _turns(width, step)
        b = _turns(-(-m // width), step * width)
        b += phase
        return cls(freq, phase, amplitude, dt, m, alignment_period,
                   inner=np.stack([np.cos(a), np.sin(a)]),
                   starts=np.stack([amplitude * np.cos(b), -amplitude * np.sin(b)], axis=1))

    def _blocks(self):
        """Yield ``(i0, v)``: the samples from i0 on, whole blocks at a time, in one scratch."""
        width = self.inner.shape[1]
        rows = max(1, _BLOCK_POINTS // width)
        scratch = np.empty((rows, width))
        for j in range(0, len(self.starts), rows):
            k = min(rows, len(self.starts) - j)
            np.matmul(self.starts[j:j + k], self.inner, out=scratch[:k])
            yield j * width, scratch[:k].reshape(-1)[:self.m - j * width]

    def signal(self) -> Signal:
        """The tone's samples as a `Signal`."""
        samples = np.empty(self.m)
        for i0, v in self._blocks():
            samples[i0:i0 + v.size] = v
        return Signal(dt=self.dt, samples=samples, alignment_period=self.alignment_period)

    def multiply_into(self, out: np.ndarray, offset: float) -> None:
        """``out *= samples + offset``, bit for bit as on `signal`'s samples."""
        for i0, v in self._blocks():
            v += offset
            out[i0:i0 + v.size] *= v


def grid_step(inst: CpiInstance, cfg: NonidealityConfig) -> float:
    """Seconds between grid points: one alignment period over `points_per_period`."""
    return float(alignment_time(inst)) / cfg.f_base / points_per_period(inst, cfg)


def source_draws(inst: CpiInstance, cfg: NonidealityConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every source's relative frequency error and phase, in that order, seeded ``[seed, 101]``."""
    if not (cfg.freq_error_sigma or cfg.phase_error_sigma):  # the bits normal(0.0, 0.0, n) draws
        return np.zeros(inst.n), np.zeros(inst.n)
    rng = np.random.default_rng([cfg.seed, 101])
    eps = rng.normal(0.0, cfg.freq_error_sigma, inst.n)
    return eps, rng.normal(0.0, cfg.phase_error_sigma, inst.n)


def _source_maker(inst: CpiInstance, cfg: NonidealityConfig,
                  periods: int) -> Callable[[int], Tone]:
    """Draw every source's frequency error and phase; return ``source(i)``.

    The draws come first, in one fixed order, so making the sources one at
    a time gives the same tones as making them all.
    """
    if periods < 1:
        raise ValueError("periods must be at least 1")
    t_align = float(alignment_time(inst)) / cfg.f_base
    dt = grid_step(inst, cfg)
    m = periods * points_per_period(inst, cfg)
    eps, phases = source_draws(inst, cfg)

    def source(i: int) -> Tone:
        return Tone.make(freq=cfg.f_base * inst.values[i] * (1.0 + eps[i]), phase=phases[i],
                         amplitude=_per_stage(cfg.source_amplitude, i), dt=dt, m=m,
                         alignment_period=t_align)

    return source


def synthesize_sources(inst: CpiInstance, cfg: NonidealityConfig,
                       periods: int = 1) -> list[Signal]:
    """Cosine sources on a common grid spanning whole alignment periods.

    Frequencies are ``f_base * a_i * (1 + eps_i)`` with relative Gaussian
    errors ``eps_i``, phases are Gaussian; both draws are deterministic per
    seed.  The grid resolves the highest nominal product harmonic with at
    least ``oversample`` points per cycle; `points_per_period` rounds the
    count per period up to a 2·3·5·7-smooth length for the FFTs.  Each
    source is its `Tone`'s samples; `run_cascade` uses the same tones
    without materialising them.
    """
    source = _source_maker(inst, cfg, periods)
    return [source(i).signal() for i in range(inst.n)]


def zero_phase_filter(samples: np.ndarray, gains: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """``samples`` with rfft bin k scaled by the real ``gains[k]``: a zero-phase filter.

    The gains scale the spectrum's real and imaginary parts in place, with no
    complex copy.  The result is ``out`` when given (``samples`` may be it).
    """
    spec = np.fft.rfft(samples)
    spec.real *= gains
    spec.imag *= gains
    return np.fft.irfft(spec, n=len(samples), out=out)


def _pole_response(m: int, dt: float, cfg: NonidealityConfig,
                   bins: Optional[int] = None) -> Optional[np.ndarray]:
    """The output pole's gain at the first ``bins`` bins (default: all) of an
    m-point rfft, None without a pole: 1/sqrt(1 + (f/f*)^2) (one-pole), or 1.0
    up to f* and 0.0 above (hard).  Bin k's frequency is k·(1/(m·dt)), as
    ``np.fft.rfftfreq`` forms it."""
    if cfg.bandwidth_model == "none" or not math.isfinite(cfg.bandwidth_f_star):
        return None
    freqs = np.arange(m // 2 + 1 if bins is None else bins) * (1.0 / (m * dt))
    if cfg.bandwidth_model == "one-pole":
        return 1.0 / np.sqrt(1.0 + (freqs / cfg.bandwidth_f_star) ** 2)
    return (freqs <= cfg.bandwidth_f_star).astype(float)


def stage_noise_rng(cfg: NonidealityConfig, stage: int) -> np.random.Generator:
    """The generator of multiplier ``stage``'s noise, seeded ``[seed, 104729, stage]``."""
    return np.random.default_rng([cfg.seed, 104729, stage])


def _stage_noise(cfg: NonidealityConfig, stage: int, m: int) -> Optional[np.ndarray]:
    """The additive noise of multiplier ``stage`` on an m-point grid; None without noise.

    Drawn from `stage_noise_rng`, so it depends only on the seed and the
    stage; `multiply_stage` draws it when it adds it.
    """
    if cfg.noise_sigma > 0:
        noise = stage_noise_rng(cfg, stage).standard_normal(m)
        noise *= cfg.noise_sigma  # the bits of normal(0.0, sigma, m), for less work
        return noise
    return None


def multiply_stage(x: Signal, y: Union[Signal, Tone], cfg: NonidealityConfig,
                   stage: int = 0, pole: Optional[np.ndarray] = None,
                   out: Optional[np.ndarray] = None) -> Signal:
    """One four-quadrant multiplier: scaled product plus offsets, Z and noise.

    Order of effects: input offsets -> product * mult_scale -> output offset
    + Z + noise -> supply clamp -> output bandwidth pole (clamped again, the
    pin cannot leave the rails).  ``pole`` is `_pole_response`'s gains for
    this grid, computed here when not given, and `zero_phase_filter` applies
    them; the noise is `_stage_noise`'s draw, freed before the pole's FFTs.
    ``y`` is a `Signal` or a `Tone`, whose samples are formed block by block
    inside the product.  The pin is written into ``out`` when given
    (``x.samples`` itself may be), else into a new array, and the FFT round
    trip returns into it.
    """
    _check_same_grid(x, y)
    off_in = _per_stage(cfg.mult_input_offset, stage)
    off_out = _per_stage(cfg.mult_output_offset, stage)
    z = _per_stage(cfg.z_compensation, stage)
    out = np.add(x.samples, off_in, out=out)
    if isinstance(y, Tone):
        y.multiply_into(out, off_in)
    else:
        out *= y.samples + off_in
    out *= cfg.mult_scale
    out += off_out
    out += z
    noise = _stage_noise(cfg, stage, len(out))
    if noise is not None:
        out += noise
    del noise
    np.clip(out, -cfg.supply_voltage, cfg.supply_voltage, out=out)
    if pole is None:
        pole = _pole_response(x.m, x.dt, cfg)
    if pole is not None:
        zero_phase_filter(out, pole, out=out)
        np.clip(out, -cfg.supply_voltage, cfg.supply_voltage, out=out)
    return replace(x, samples=out)


def amplify(x: Signal, cfg: NonidealityConfig, out: Optional[np.ndarray] = None) -> Signal:
    """Non-inverting amplifier stage: gain, offset, rail clamp.

    Writes into ``out`` when given (``x.samples`` itself may be), else into a
    new array.
    """
    out = np.multiply(x.samples, cfg.amp_gain, out=out)
    out += cfg.amp_offset
    np.clip(out, -cfg.supply_voltage, cfg.supply_voltage, out=out)
    return replace(x, samples=out)


def run_cascade(inst: CpiInstance, cfg: NonidealityConfig, periods: int = 1) -> PipelineTrace:
    """Fold the sources left to right through multiplier+amplifier stages.

    An n-value instance runs n-1 stages; a single-value instance passes its
    source straight through.  The fold streams: all frequency errors and
    phases are drawn first, source k is a `Tone` made only for stage k, and
    each multiplier pin is reduced to its mean, the trace's ``pin_dc``, and
    dropped.  The draws, operations and their order are those of
    `synthesize_sources`, `multiply_stage` and `amplify`, so the result is
    bit-identical to folding those by hand.  Against an extended-precision
    reference on 705,600 points, unit-amplitude sources were off by at most
    2.2e-14 V, where ``np.cos`` of a float64 phase, the synthesis before
    tones, was off by up to 3.2e-11 V.

    The cascade runs on the caller's thread.  Each stage is one
    `multiply_stage` call, which draws the stage's noise and writes the pin
    over the accumulator; `amplify` then writes the stage output over the
    pin.  A tone is a few KB and is formed inside the product, so whatever n
    is, at most two and a half grid arrays are alive: the accumulator, the
    stage's noise and the pole's float gains; during the pole's FFTs the
    spectrum takes the place of the spent noise.  Beside them sits the
    tone's 64 KB of scratch during the product.  Measured with tracemalloc
    with the pole and noise: 2.51 arrays at 352,800 points.

    Raises:
        GridTooLargeError: before any synthesis, when the grid of ``periods``
            alignment periods would exceed `MAX_GRID_POINTS` (see `check_grid`).
    """
    validate_stage_sequences(cfg, inst.n)
    check_grid(inst, cfg, periods)
    source = _source_maker(inst, cfg, periods)
    acc = source(0).signal()
    pole = _pole_response(acc.m, acc.dt, cfg)
    pin_dc = []
    for k in range(1, inst.n):
        pin = multiply_stage(acc, source(k), cfg, stage=k - 1, pole=pole, out=acc.samples)
        pin_dc.append(float(np.mean(pin.samples)))
        acc = amplify(pin, cfg, out=pin.samples)
    return PipelineTrace(final=acc, pin_dc=tuple(pin_dc))


def xy_csv(header: str, xs: np.ndarray, ys: np.ndarray) -> str:
    """Two-column export of two arrays: the ``header`` row, then one ``.12g`` row per pair."""
    return "\n".join([header, *map("{:.12g},{:.12g}".format, xs.tolist(), ys.tolist())]) + "\n"


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(_text, value))
    if isinstance(value, float):  # -0.0 as 0: the two compare equal, so one chain has one text
        return f"{value or 0.0:.12g}"
    return str(int(value) if isinstance(value, bool) else value)


def fields_to_text(obj, names: Optional[Sequence[str]] = None) -> str:
    """``name=value`` lines of dataclass ``obj``'s fields ``names`` (default all, in order):
    floats ``.12g`` (−0.0 as 0), tuples comma-joined, bools 0 or 1, as `from_items` reads."""
    names = [f.name for f in fields(obj)] if names is None else names
    return "".join(f"{name}={_text(getattr(obj, name))}\n" for name in names)


def config_to_text(cfg: NonidealityConfig) -> str:
    """Flat key=value serialization, one field per line, sorted."""
    return fields_to_text(cfg, sorted(f.name for f in fields(cfg)))


def parse_kv(text: str) -> dict[str, str]:
    """Parse ``key=value`` lines; blank lines and ``#`` comments are skipped.

    Raises:
        ValueError: on a line without ``=``, or a key given twice.
    """
    items = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"bad config line {line!r}")
        key = key.strip()
        if key in items:
            raise ValueError(f"key {key} is given twice")
        items[key] = value.strip()
    return items


# How a field's text is read, by the field's declared type; an int literal is exact, and
# an empty list entry is refused, as float("") is.
_READERS = {
    int: lambda text: int(text) if text.strip().lstrip("+-").isdecimal() else float(text),
    float: float,
    bool: lambda text: bool(int(text)),
    str: str.strip,
    PerStage: lambda text: tuple(map(float, text.split(","))) if "," in text else float(text),
    Sequence[float]: lambda text: tuple(map(float, text.split(","))) if text.strip() else (),
}


# How `store_fields` converts a field's value, by the field's declared type.
_STORES = {
    int: _integral,
    float: lambda name, v: float(v),
    bool: lambda name, v: bool(v),
    str: lambda name, v: v,
    PerStage: lambda name, v: float(v) if isinstance(v, (int, float)) else tuple(map(float, v)),
    Sequence[float]: lambda name, v: tuple(map(float, v)),
}


@functools.cache
def _rules(cls) -> dict[str, tuple[Callable, Callable]]:  # each field's reader and store
    return {name: (_READERS[hint], _STORES[hint]) for name, hint in get_type_hints(cls).items()}


def store_fields(obj) -> None:
    """Store each field of frozen dataclass ``obj`` as its declared type (`_STORES`).

    Equal values are stored alike (10**20 as 1e20, 16.0 as 16), so one chain
    has one text.  A non-integral int, or a NaN or infinite float or entry but
    `_UNLIMITED`, raises a ValueError naming the field: the harmonic route and
    the grid read them differently, and a NaN cut answers every instance NO.
    """
    for name, (_, store) in _rules(type(obj)).items():
        value = store(name, getattr(obj, name))
        if type(value) is tuple and not all(map(math.isfinite, value)) or \
                type(value) is float and not math.isfinite(value) and (name, value) != _UNLIMITED:
            raise ValueError(f"{name} must be finite, got {value!r}")
        object.__setattr__(obj, name, value)


def read_field(cls, key: str, value: object, source: str = "config") -> object:
    """``value`` read as `from_items` reads it for field ``key`` of dataclass ``cls``."""
    reader, _ = _rules(cls).get(key, (None, None))
    if reader is None:
        raise ValueError(f"unknown {source} key {key!r}")
    try:
        return reader(value) if isinstance(value, str) else value
    except ValueError as exc:
        raise ValueError(f"{source} key {key}: {exc}") from None


def from_items(cls, items: dict[str, object], source: str = "config"):
    """Build dataclass ``cls`` from key=value pairs, such as a parsed config file.

    A string is read by its field's declared type; an int field's text that
    is no int literal is read as a float, which the class takes when it is
    integral (16.0 as 16).  A bool is read as an int, 0 or 1.  A `PerStage`
    field's text with a comma, and a ``Sequence[float]`` field's always, is
    comma-separated floats (``()`` when empty).  Other values pass as they
    are.  An unknown key, or a string or list entry that does not parse,
    raises a ValueError naming ``source`` and the key.
    """
    return cls(**{key: read_field(cls, key, value, source) for key, value in items.items()})
