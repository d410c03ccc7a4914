"""The linear analogue chain on its harmonics: its DC, the DC's noise and a clip bound.

Without frequency errors every source is two lines, at ±a_i/gcd harmonics of
the alignment frequency f_base·gcd.  Without clipping every block is affine:
a multiplier is a shift-and-add of coefficient arrays, the bandwidth pole is a
real gain per harmonic (it is zero-phase), and offsets, Z and the amplifier
act on the DC line and on the scale.  Every signal is real, so harmonic -h is
the conjugate of harmonic h, and the whole chain runs on the K+1 complex
coefficients of harmonics 0..K, K = total/gcd, in two buffers it allocates
once, where the grid carries the same harmonics ``oversample`` times over and
pays two FFTs per stage.  This is the harmonic-balance view of a circuit
(Kundert & Sangiovanni-Vincentelli, IEEE TCAD 5(4), 1986).

Each stage's noise enters the chain linearly too, so the DC's noise is
Gaussian with zero mean.  On an m-point grid, white noise of σ volts per
sample puts σ²/m of expected power on each harmonic, so stage s adds the
variance σ²/m·Σ_h |ρ_s[h]|², where ρ_s[h] is the DC's sensitivity to
harmonic h of that stage's pin.  One adjoint pass of the same shift-and-add,
from the DC line back to the first stage, gives every ρ_s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import FilterSpec
from .instances import CpiInstance
from .pipeline import NonidealityConfig, _per_stage, _pole_response, grid_step, \
    points_per_period, source_draws

# Noise RMS multiples kept clear of the rails for a chain to count as unclipped.
CLIP_SIGMAS = 8.0
# Largest K folded.  A fold holds two complex buffers of K+1, the pole's K+1
# floats and one complex temporary of at most K+1: about 1.75 arrays of 2K+1
# complex values, 112 MB at the limit.
MAX_HARMONICS = 2_000_000


class HarmonicsTooLargeError(ValueError):
    """An instance's harmonic count total/gcd exceeds `MAX_HARMONICS`."""


@dataclass(frozen=True, eq=False)
class Fold:
    """The chain folded on its harmonics.

    ``harmonics[h]``, h = 0..K, is harmonic h of the final stage output (the
    last source for a single value); harmonic -h is its conjugate.  ``dc`` is
    ``spec.dc_gain`` times its DC line, the noise-free DC of a one-period run.
    ``stage_sigma[s]`` is the standard deviation that stage s's noise adds to
    that DC.  For each stage's pin and amplifier output, in chain order,
    ``node_bound`` holds Σ|c| over -K..K, which bounds every noise-free
    sample, and ``node_noise`` a bound on the noise's RMS over the period.
    The pole output between them needs no entry: its gains lie in [0, 1], so
    the pin's bounds hold for it.
    """

    harmonics: np.ndarray
    dc: float
    stage_sigma: tuple[float, ...]
    node_bound: tuple[float, ...]
    node_noise: tuple[float, ...]

    def clips(self, supply_voltage: float) -> bool:
        """True when some node's bound plus `CLIP_SIGMAS` noise RMS reaches the rails."""
        return any(b + CLIP_SIGMAS * r >= supply_voltage
                   for b, r in zip(self.node_bound, self.node_noise))


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


def _scale(c: np.ndarray, gains: np.ndarray) -> None:
    """``c *= gains`` for real gains, on the real and imaginary parts: no complex copy."""
    c.real *= gains
    c.imag *= gains


def _abs_sum(c: np.ndarray) -> float:
    """Σ|c| over harmonics -L..L, from harmonics 0..L."""
    mag = np.abs(c)
    return float(mag[0] + 2.0 * mag[1:].sum())


def fold(inst: CpiInstance, cfg: NonidealityConfig, spec: FilterSpec) -> Fold:
    """Run ``cfg``'s chain on ``inst`` as harmonic coefficients, clipping ignored.

    The sources' phases are `pipeline.source_draws`'s, so they are the grid's
    at the same seed.  The pole's gain for harmonic h is taken at the grid's
    own bin frequency, h·(1/(m·dt)) on the `points_per_period` grid, so a
    harmonic exactly at a hard pole's f* passes as it does on the grid.  The
    amplifier and multiplier act as in `pipeline.multiply_stage` and
    `pipeline.amplify`, but with no supply clamp: the result is the grid's
    only where `Fold.clips` is false.  The adjoint runs first, as it reads
    nothing of the forward pass, and then the forward pass, each block from
    one of two buffers of K+1 into the other.

    Raises:
        ValueError: when ``cfg`` has frequency errors, which move the sources
            off the harmonics.
        HarmonicsTooLargeError: when total/gcd exceeds `MAX_HARMONICS`,
            before anything is allocated.
    """
    if cfg.freq_error_sigma:
        raise ValueError("frequency errors move the sources off the harmonics")
    harmonics = [a // inst.gcd for a in inst.values]
    top = sum(harmonics)
    if top > MAX_HARMONICS:
        raise HarmonicsTooLargeError(f"instance needs {top} harmonics "
                                     f"(limit {MAX_HARMONICS})")
    m = points_per_period(inst, cfg)
    pole = _pole_response(m, grid_step(inst, cfg), cfg, bins=top + 1)
    phases = source_draws(inst, cfg)[1]
    lines = [0.5 * _per_stage(cfg.source_amplitude, i) * np.exp(1j * phases[i])
             for i in range(inst.n)]
    sigma, gain = cfg.noise_sigma, cfg.amp_gain
    held, spare = np.empty(top + 1, dtype=complex), np.empty(top + 1, dtype=complex)

    # adjoint: lam[h] is the DC's sensitivity to harmonic h of the node, from the DC line back
    lam = held[:1]
    lam[0] = spec.dc_gain
    stage_sigma = []
    for s in reversed(range(inst.n - 1)):
        lam *= gain
        if pole is not None:
            _scale(lam, pole[:len(lam)])
        power = abs(lam[0]) ** 2 + 2.0 * np.vdot(lam[1:], lam[1:]).real
        stage_sigma.append(sigma * math.sqrt(float(power) / m))
        if s:  # the first stage's sensitivity to its inputs is never read
            lam = _shift_add(lam, harmonics[s + 1], np.conj(lines[s + 1]),
                             _per_stage(cfg.mult_input_offset, s), spare)
            lam *= cfg.mult_scale
            held, spare = spare, held

    c = held[:harmonics[0] + 1]  # the first source, over what the adjoint left
    c[:] = 0.0
    c[-1] = lines[0]
    rms = 0.0
    bounds, noises = [], []
    for s in range(inst.n - 1):
        h, w = harmonics[s + 1], lines[s + 1]
        off_in = _per_stage(cfg.mult_input_offset, s)
        c[0] += off_in
        c = _shift_add(c, h, w, off_in, spare)
        held, spare = spare, held
        c *= cfg.mult_scale
        c[0] += _per_stage(cfg.mult_output_offset, s)
        if len(cfg.z_compensation):
            c[0] += _per_stage(cfg.z_compensation, s)
        # the accumulator's noise times a source of at most 2|w| + |off_in|, plus this stage's
        rms = math.hypot(rms * abs(cfg.mult_scale) * (2 * abs(w) + abs(off_in)), sigma)
        bounds.append(_abs_sum(c))
        noises.append(rms)
        if pole is not None:
            _scale(c, pole[:len(c)])
        c *= gain
        c[0] += cfg.amp_offset
        rms *= abs(gain)
        bounds.append(_abs_sum(c))
        noises.append(rms)
    return Fold(harmonics=c, dc=spec.dc_gain * float(c[0].real),
                stage_sigma=tuple(reversed(stage_sigma)), node_bound=tuple(bounds),
                node_noise=tuple(noises))
