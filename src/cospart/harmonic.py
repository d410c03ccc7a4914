"""The linear analogue chain on its harmonics: its DC, the DC's noise and a clip bound.

Without frequency errors every source is two lines, at ±a_i/gcd harmonics of
the alignment frequency f_base·gcd.  Without clipping every block is affine:
a multiplier is a shift-and-add of coefficient arrays, the bandwidth pole is a
real gain per harmonic (it is zero-phase), and offsets, Z and the amplifier
act on the DC line and on the scale.  Every signal is real, so harmonic -h is
the conjugate of harmonic h, and a signal is held as its coefficients of
harmonics 0..h_max, where the grid carries the same harmonics ``oversample``
times over and pays two FFTs per stage.  Without phase errors every source is
a cosine, so every coefficient is real and held as a float64; with them the
coefficients are complex128.  This is the harmonic-balance view of a circuit
(Kundert & Sangiovanni-Vincentelli, IEEE TCAD 5(4), 1986).

Each stage is affine in its accumulator, so the DC is a linear function of
every injection: each offset, each Z and the first source's two lines.  So
one adjoint pass of the same shift-and-add, from the DC line back to the
first stage, gives the DC's sensitivity ρ[h] to harmonic h of every node it
passes (Director & Rohrer, IEEE Trans. Circuit Theory 16(3), 1969), and the
noise-free DC is the sum of each injection times ρ at its node.  Each
stage's noise enters linearly too, so the DC's noise is Gaussian with zero
mean.  On an m-point grid, white noise of σ volts per sample puts
σ²/m of expected power on each harmonic, so stage s adds the variance
σ²/m·Σ_h |ρ_s[h]|², where ρ_s is the sensitivity at that stage's pin.

The clip bound comes first from a scalar recursion, the triangle bound: the
L1 norm of a product's coefficients is at most the product of the L1 norms,
and the pole's gains lie in [0, 1].  Only when that bound reaches the rails
does `forward` run the chain from the first stage to the DC, on harmonics
0..K (K = total/gcd) in two buffers, for the exact Σ|c| at every node, which
then decides the route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dsp import FilterSpec
from .instances import CpiInstance
from .pipeline import NonidealityConfig, _per_stage, _pole_response, grid_step, \
    points_per_period, source_draws, validate_stage_sequences

# Noise RMS multiples kept clear of the rails for a chain to count as unclipped.
CLIP_SIGMAS = 8.0
# Largest K folded.  `forward` holds two buffers of K+1 harmonics, the pole's K+1
# floats and one temporary of at most K+1: four float64 arrays of K+1, 64 MB at
# the limit, for a phase-free chain; with phase errors the buffers and the
# temporary are complex, about 1.75 complex arrays of 2K+1, 112 MB.  The adjoint
# pass holds as many arrays, each of 1 + h_2 + … + h_{n-1} harmonics, and never
# while `forward` runs.
MAX_HARMONICS = 2_000_000


class HarmonicsTooLargeError(ValueError):
    """An instance's harmonic count total/gcd exceeds `MAX_HARMONICS`."""


@dataclass(frozen=True, eq=False)
class Fold:
    """The chain folded on its harmonics.

    ``dc`` is ``spec.dc_gain`` times the final stage output's DC line (the
    last source's for a single value), the noise-free DC of a one-period run.
    ``stage_sigma[s]`` is the standard deviation that stage s's noise adds to
    that DC.  For each stage's pin and amplifier output, in chain order,
    ``node_bound`` bounds every noise-free sample: the triangle bound, or
    `forward`'s Σ|c| over -K..K where the triangle bound reaches the rails.
    ``node_noise`` bounds the noise's RMS over the period.  The pole output
    between them needs no entry: its gains lie in [0, 1], so the pin's bounds
    hold for it.  The pass that gives them holds its harmonics as float64
    when no source carries a phase error, and as complex128 otherwise.
    """

    dc: float
    stage_sigma: tuple[float, ...]
    node_bound: tuple[float, ...]
    node_noise: tuple[float, ...]

    def clips(self, supply_voltage: float) -> bool:
        """True when some node's bound plus `CLIP_SIGMAS` noise RMS reaches the rails."""
        return _reaches_rails(self.node_bound, self.node_noise, supply_voltage)


def _reaches_rails(bounds: Sequence[float], noises: Sequence[float],
                   supply_voltage: float) -> bool:
    return any(b + CLIP_SIGMAS * r >= supply_voltage for b, r in zip(bounds, noises))


def _shift_add(c: np.ndarray, h: int, w: complex, off: float, out: np.ndarray) -> np.ndarray:
    """``c`` times the lines w·e^{+ih}, conj(w)·e^{-ih} plus the DC line ``off``, into ``out``.

    ``c`` holds harmonics 0..L of a real signal, whose harmonic -k is
    conj(c[k]).  Returns the view ``out[:L + h + 1]``: harmonic k of the
    product is w·c[k-h] + conj(w)·c[k+h] + off·c[k], where for k < h the
    harmonic k-h is the reflected conj(c[h-k]), and zero below -L.
    """
    top = len(c) + h
    # the scalar comes first, as numpy's complex product is not bitwise commutative
    np.multiply(w, c, out=out[h:top])
    low = max(h - len(c) + 1, 0)
    out[:low] = 0.0
    reflected = np.conjugate(c[h - low:0:-1], out=out[low:h])
    np.multiply(w, reflected, out=reflected)
    if h < len(c):
        out[:len(c) - h] += np.conj(w) * c[h:]
    if off:
        out[:len(c)] += off * c
    return out[:top]


def _harmonic(c: np.ndarray, k: int) -> complex:
    """Harmonic k of the real signal whose harmonics 0..L ``c`` holds; zero past ±L."""
    if k < 0:
        return np.conj(_harmonic(c, -k))
    return c[k] if k < len(c) else 0.0


def _scale(c: np.ndarray, gains: np.ndarray) -> None:
    """``c *= gains`` for real gains; a complex ``c`` part by part, with no complex copy."""
    c.real *= gains
    if np.iscomplexobj(c):
        c.imag *= gains


def _abs_sum(c: np.ndarray) -> float:
    """Σ|c| over harmonics -L..L, from harmonics 0..L."""
    mag = np.abs(c)
    return float(mag[0] + 2.0 * mag[1:].sum())


def _power(c: np.ndarray) -> float:
    """Σ|c|² over harmonics -L..L, from harmonics 0..L.

    By einsum, as a BLAS dot may wake its threads on a long ``c``.
    """
    if np.iscomplexobj(c):
        x = c.view(float)  # harmonic h's real and imaginary parts at x[2h], x[2h + 1]
        return float(x[0] ** 2 + x[1] ** 2 + 2.0 * np.einsum("i,i->", x[2:], x[2:]))
    return float(c[0] ** 2 + 2.0 * np.einsum("i,i->", c[1:], c[1:]))


def _setup(inst: CpiInstance, cfg: NonidealityConfig
           ) -> tuple[list[int], int, list[complex], np.dtype]:
    """Each source's harmonic, the grid's m, each source's line at its + harmonic,
    and the dtype that holds every harmonic of the chain.

    The sources' phases are `pipeline.source_draws`'s, so they are the grid's
    at the same seed.  Without phase errors they are all 0, nothing is drawn,
    and the lines are real, so the dtype is float64; else it is complex128.
    Raises what `fold` raises.
    """
    validate_stage_sequences(cfg, inst.n)
    if cfg.freq_error_sigma:
        raise ValueError("frequency errors move the sources off the harmonics")
    harmonics = [a // inst.gcd for a in inst.values]
    top = sum(harmonics)
    if top > MAX_HARMONICS:
        raise HarmonicsTooLargeError(f"instance needs {top} harmonics "
                                     f"(limit {MAX_HARMONICS})")
    amplitudes = [0.5 * _per_stage(cfg.source_amplitude, i) for i in range(inst.n)]
    if cfg.phase_error_sigma:
        phases = source_draws(inst, cfg)[1]
        lines = [complex(a * np.exp(1j * p)) for a, p in zip(amplitudes, phases)]
    else:  # cosines: a product of real lines has real lines
        lines = [float(a) for a in amplitudes]
    return harmonics, points_per_period(inst, cfg), lines, np.array(lines).dtype


def fold(inst: CpiInstance, cfg: NonidealityConfig, spec: FilterSpec) -> Fold:
    """Run ``cfg``'s chain on ``inst`` as harmonic coefficients, clipping ignored.

    The pole's gain for harmonic h is taken at the grid's own bin frequency,
    h·(1/(m·dt)) on the `points_per_period` grid, so a harmonic exactly at a
    hard pole's f* passes as it does on the grid.  The amplifier and
    multiplier act as in `pipeline.multiply_stage` and `pipeline.amplify`,
    but with no supply clamp: the result is the grid's only where
    `Fold.clips` is false.  The node bounds are the triangle bound; only
    when it reaches the rails does `forward` run, and its Σ|c| takes its
    place.  The DC and every stage's σ then come from one adjoint pass, in
    two buffers of its longest sensitivity, 1 + h_2 + … + h_{n-1}, of
    `_setup`'s dtype.

    Raises:
        ValueError: when a per-stage or per-source sequence of ``cfg`` does
            not fit ``inst`` (`validate_stage_sequences`, as `run_cascade`
            refuses it), or when ``cfg`` has frequency errors, which move the
            sources off the harmonics.
        HarmonicsTooLargeError: when total/gcd exceeds `MAX_HARMONICS`,
            before anything is allocated.
    """
    harmonics, m, lines, dtype = _setup(inst, cfg)
    stages = range(inst.n - 1)
    ins = [_per_stage(cfg.mult_input_offset, s) for s in stages]
    pins = [_per_stage(cfg.mult_output_offset, s) + _per_stage(cfg.z_compensation, s)
            for s in stages]  # output offset and Z
    scale = cfg.mult_scale

    # Σ|c| of a product is at most the product of the factors' Σ|c|
    bound, rms = 2.0 * abs(lines[0]), 0.0
    bounds, noises = [], []
    for s in stages:
        source = 2.0 * abs(lines[s + 1]) + abs(ins[s])
        bound = abs(scale) * (bound + abs(ins[s])) * source + abs(pins[s])
        # the accumulator's noise times the source, plus this stage's
        rms = math.hypot(rms * abs(scale) * source, cfg.noise_sigma)
        bounds.append(bound)
        noises.append(rms)
        bound = abs(cfg.amp_gain) * bound + abs(cfg.amp_offset)
        rms *= abs(cfg.amp_gain)
        bounds.append(bound)
        noises.append(rms)
    if _reaches_rails(bounds, noises, cfg.supply_voltage):  # too loose: Σ|c| decides
        bounds = forward(inst, cfg)[1]

    # adjoint: lam[h] is the DC's sensitivity to harmonic h of the node reached, so a
    # DC injection there adds its size times lam[0] to the DC: the amplifier offset at
    # each amplifier output, pins[s] at each pin, ins[s] at each accumulator input,
    # which is the amplifier output before it
    size = 1 + sum(harmonics[2:])
    pole = _pole_response(m, grid_step(inst, cfg), cfg, bins=size)
    gains = np.ones(size) if pole is None else pole
    gains *= cfg.amp_gain  # the amplifier's gain times the pole's, per harmonic
    held, spare = np.empty(size, dtype=dtype), np.empty(size, dtype=dtype)
    lam = held[:1]
    lam[0] = spec.dc_gain
    dc, stage_sigma = 0.0, []
    for s in reversed(stages):
        h, w = harmonics[s + 1], np.conj(lines[s + 1])
        dc += lam[0].real * cfg.amp_offset
        lam *= gains[:len(lam)]
        stage_sigma.append(cfg.noise_sigma * math.sqrt(_power(lam) / m))
        dc += lam[0].real * pins[s]
        if s:
            lam = _shift_add(lam, h, scale * w, scale * ins[s], spare)
            held, spare = spare, held
            dc += lam[0].real * ins[s]
        else:
            # the first source's lines add 2·Re(lam[h_0]·w_0) at the first accumulator
            # input: form only harmonics 0 and h_0 of that last shift-and-add
            def product(k: int) -> complex:
                return scale * (w * _harmonic(lam, k - h) + np.conj(w) * _harmonic(lam, k + h)
                                + ins[0] * _harmonic(lam, k))

            dc += product(0).real * ins[0] + 2.0 * (product(harmonics[0]) * lines[0]).real
    return Fold(dc=float(dc), stage_sigma=tuple(reversed(stage_sigma)),
                node_bound=tuple(bounds), node_noise=tuple(noises))


def forward(inst: CpiInstance, cfg: NonidealityConfig) -> tuple[np.ndarray, tuple[float, ...]]:
    """The chain from the first stage to the DC: harmonics 0..K of the final
    stage output, and Σ|c| over -K..K at every node.

    Each block runs from one of two buffers of K+1 into the other.  The
    harmonics are float64 when no source carries a phase error, and
    complex128 otherwise.  Harmonic 0 of the output is `Fold.dc` over the
    filter's DC gain; the nodes are `Fold.node_bound`'s.  Raises as `fold`.
    """
    harmonics, m, lines, dtype = _setup(inst, cfg)
    pole = _pole_response(m, grid_step(inst, cfg), cfg, bins=sum(harmonics) + 1)
    held = np.empty(sum(harmonics) + 1, dtype=dtype)
    spare = np.empty_like(held)
    c = held[:harmonics[0] + 1]  # the first source
    c[:] = 0.0
    c[-1] = lines[0]
    bounds = []
    for s in range(inst.n - 1):
        h, w = harmonics[s + 1], lines[s + 1]
        off_in = _per_stage(cfg.mult_input_offset, s)
        c[0] += off_in
        c = _shift_add(c, h, w, off_in, spare)
        held, spare = spare, held
        c *= cfg.mult_scale
        c[0] += _per_stage(cfg.mult_output_offset, s)
        c[0] += _per_stage(cfg.z_compensation, s)
        bounds.append(_abs_sum(c))
        if pole is not None:
            _scale(c, pole[:len(c)])
        c *= cfg.amp_gain
        c[0] += cfg.amp_offset
        bounds.append(_abs_sum(c))
    return c, tuple(bounds)
