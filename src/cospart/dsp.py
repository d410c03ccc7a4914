"""Low-pass filtering, sampling and DC extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .exact import Spectrum
from .pipeline import Signal, store_fields, zero_phase_filter

_KIND_ALIASES = {
    "ideal-brickwall": "brickwall",
    "one-pole-cascade": "one-pole",
}
FILTER_KINDS = ("brickwall", "one-pole", "none")


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass description: kind, cutoff, order and per-stage gain.

    The compensating design uses gain 2 per stage so an order-n cascade
    restores the 2**n amplitude loss of an n-cosine product at DC.  Fields are
    stored by `pipeline.store_fields`: finite floats and an integral order.
    """

    kind: str
    cutoff_f0: float
    order: int = 1
    per_stage_gain: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", _KIND_ALIASES.get(self.kind, self.kind))
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"kind must be one of {FILTER_KINDS}")
        if not self.cutoff_f0 > 0:  # NaN too, before the store calls it not finite
            raise ValueError(f"cutoff_f0 must be positive, got {self.cutoff_f0!r}")
        store_fields(self)
        if self.per_stage_gain <= 0:  # 0 nulls the DC; < 0 flips it and the cut scaled by it
            raise ValueError(f"per_stage_gain must be positive, got {self.per_stage_gain!r}")
        if self.order < 1:
            raise ValueError("order must be at least 1")

    @property
    def dc_gain(self) -> float:
        if self.kind == "none":
            return 1.0
        return self.per_stage_gain ** self.order


@dataclass(eq=False)
class SampledTrace:
    """Equidistant samples (t_start + i*tau, values[i]) after the filter."""

    t_start: float
    tau: float
    values: np.ndarray
    snap_distance: float = 0.0
    resampled: bool = False

    @property
    def m(self) -> int:
        return len(self.values)

    def times(self) -> np.ndarray:
        return self.t_start + self.tau * np.arange(self.m)


def apply_lowpass(sig: Signal, spec: FilterSpec) -> Signal:
    """Filter over the signal's full grid by `pipeline.zero_phase_filter`.

    Each rfft bin is scaled by a real gain, the magnitude (zero-phase)
    response, since only amplitudes reach the decision.  Brickwall: the DC
    gain below the cutoff, 0.0 at or above it; the one-pole cascade:
    (gain / sqrt(1 + (f/f0)^2))**order.  The filtered samples are a new
    array; ``none`` returns ``sig`` itself.
    """
    if spec.kind == "none":
        return sig
    freqs = np.fft.rfftfreq(sig.m, d=sig.dt)
    if spec.kind == "brickwall":
        gains = np.where(freqs < spec.cutoff_f0, spec.dc_gain, 0.0)
    else:
        gains = (spec.per_stage_gain / np.sqrt(1.0 + (freqs / spec.cutoff_f0) ** 2)) ** spec.order
    del freqs  # not alive during the FFTs
    return replace(sig, samples=zero_phase_filter(sig.samples, gains))


def design_compensating_filter(n: int, f0: float) -> FilterSpec:
    """Order-n one-pole cascade with gain 2 per stage (DC gain 2**n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return FilterSpec(kind="one-pole", cutoff_f0=f0, order=n, per_stage_gain=2.0)


def sample_after_filter(sig: Signal, spec: FilterSpec, t_start: float, duration: float,
                        tau: Optional[float] = None) -> SampledTrace:
    """Filter, then record equidistant samples over ``duration`` seconds.

    The step is min(requested tau, 1/(2*cutoff)), but never below the
    signal's own step, since the filtered grid holds nothing above its own
    Nyquist frequency; the start time snaps to
    the nearest multiple of the signal's alignment period and the snap
    distance is recorded.  Sample instants that fall between grid points are
    linearly interpolated; grid-commensurate steps are read exactly.
    """
    if t_start < 0:
        raise ValueError("t_start must be non-negative")
    filtered = apply_lowpass(sig, spec)
    period = sig.alignment_period
    snap = 0.0
    start = t_start
    if period:
        if duration < period * (1 - 1e-9):
            raise ValueError("duration must cover at least one alignment period")
        start = round(t_start / period) * period
        snap = abs(start - t_start)

    nyq_tau = max(1.0 / (2.0 * spec.cutoff_f0), sig.dt)
    tau_eff = nyq_tau if tau is None else min(tau, nyq_tau)
    m = int(math.floor(duration / tau_eff + 1e-9))
    if m < 1:
        raise ValueError("duration too short for the sampling step")

    grid_end = (filtered.m - 1) * filtered.dt
    last = start + (m - 1) * tau_eff
    if last > grid_end + filtered.dt * 1e-6:
        raise ValueError("sampling window extends beyond the simulated signal")

    j0 = start / filtered.dt
    k = tau_eff / filtered.dt
    if abs(j0 - round(j0)) < 1e-6 and abs(k - round(k)) < 1e-9 * max(1.0, k) and round(k) >= 1:
        i0, step = round(j0), round(k)
        # a copy: with no filter, ``filtered`` is ``sig`` itself, which the values must not alias
        values = filtered.samples[i0:i0 + step * m:step].copy()
    else:
        values = np.interp(start + tau_eff * np.arange(m), filtered.times(), filtered.samples)
    return SampledTrace(t_start=start, tau=tau_eff, values=values, snap_distance=snap)


def dc_component(trace: SampledTrace) -> float:
    """Sample mean; identical to the DC bin of `dft` by construction."""
    return float(np.mean(trace.values))


def dft(trace: SampledTrace) -> Spectrum:
    """One-sided DFT, normalized so the DC bin equals the sample mean.

    A cosine of amplitude A over whole periods shows up as A/2 per side.
    """
    if trace.m < 2:
        raise ValueError("need at least two samples")
    amps = np.abs(np.fft.rfft(trace.values)) / trace.m
    amps[0] = dc_component(trace)
    return Spectrum(np.fft.rfftfreq(trace.m, d=trace.tau), amps, 1.0 / (trace.m * trace.tau))
