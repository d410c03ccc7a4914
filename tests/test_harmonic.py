"""The harmonic engine against the grid: noise-free DCs, the ideal chain, the
adjoint noise and the route `calibration.measure_dc` takes."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cospart import calibration, harmonic, pipeline
from cospart.calibration import measure_dc, run_and_measure
from cospart.dsp import FilterSpec
from cospart.exact import ideal_dc
from cospart.instances import CpiInstance, parse_instance
from cospart.pipeline import GridTooLargeError, NonidealityConfig, grid_step, \
    points_per_period, stage_noise_rng
from conftest import tracemalloc_peak

EPS = np.finfo(float).eps


def _forwarded(inst: CpiInstance, cfg: NonidealityConfig, spec: FilterSpec) -> SimpleNamespace:
    """`harmonic.fold` with `harmonic.forward`'s harmonics, and its Σ|c| as the node bounds.

    The float residue of a harmonic is bounded by Σ|c|, not by the looser
    triangle bound `fold` keeps when it clears the rails.
    """
    chain = harmonic.fold(inst, cfg, spec)
    harmonics, node_bound = harmonic.forward(inst, cfg)
    return SimpleNamespace(dc=chain.dc, stage_sigma=chain.stage_sigma, clips=chain.clips,
                           harmonics=harmonics, node_bound=node_bound)


def _coefficients(chain: SimpleNamespace) -> np.ndarray:
    """Harmonics -K..K of the chain's output: ``[K + h]`` is harmonic h."""
    return np.concatenate((np.conj(chain.harmonics[:0:-1]), chain.harmonics))


def _sigma(chain: harmonic.Fold) -> float:
    """Standard deviation of the DC from all stages' noise."""
    return math.sqrt(sum(s * s for s in chain.stage_sigma))


def _nonideal_chain(k: int) -> tuple[CpiInstance, NonidealityConfig, FilterSpec]:
    """Seeded chain k: offsets, Z, input offsets, phase errors, and each pole model in turn.

    Even k take per-stage and per-source sequences; k = 0 mod 3 sets a hard
    pole's f* at the first source's nominal frequency.
    """
    rng = np.random.default_rng([7, k])
    n = int(rng.integers(2, 11))
    values = tuple(int(v) for v in rng.integers(1, 300, n))
    model = ("hard", "one-pole", "none")[k % 3]
    f_star = float(rng.choice([1e9, 1e6])) if k % 3 else 1e4 * values[0]
    seq = k % 2 == 0

    def per_stage(lo, hi, count):
        return tuple(rng.uniform(lo, hi, count)) if seq else float(rng.uniform(lo, hi))

    cfg = NonidealityConfig(
        mult_output_offset=per_stage(-6e-3, 6e-3, n - 1),
        mult_input_offset=per_stage(-2e-3, 2e-3, n - 1),
        z_compensation=tuple(rng.uniform(-6e-3, 6e-3, n - 1)) if seq else (),
        source_amplitude=per_stage(0.8, 1.2, n),
        amp_offset=2.5e-4, phase_error_sigma=0.05, bandwidth_model=model,
        bandwidth_f_star=f_star, seed=k)
    spec = (FilterSpec("brickwall", 5000.0),
            FilterSpec("one-pole", 5000.0, order=2, per_stage_gain=2.0))[k % 2]
    return CpiInstance(values), cfg, spec


def _chain(k: int | str) -> tuple[CpiInstance, NonidealityConfig, FilterSpec]:
    """`_nonideal_chain(k)`; "phase-free" is chain 0 without its phase errors, so
    every line is real and `fold` and `forward` run on float64."""
    if k == "phase-free":
        inst, cfg, spec = _nonideal_chain(0)
        return inst, replace(cfg, phase_error_sigma=0.0), spec
    return _nonideal_chain(k)


@pytest.mark.parametrize("k", [*range(12), "phase-free"])
def test_noise_free_dc_matches_the_grid(k):
    inst, cfg, spec = _chain(k)
    chain = _forwarded(inst, cfg, spec)
    assert not chain.clips(cfg.supply_voltage)
    dc, trace, _ = run_and_measure(inst, cfg, spec)
    # float64 residue: m rounded samples, each within eps of the largest node bound
    m = points_per_period(inst, cfg)
    bound = m * EPS * abs(spec.dc_gain) * max(1.0, *chain.node_bound)
    assert abs(chain.dc - dc) <= bound
    # every harmonic of the final stage output, not just its DC line
    half = inst.total // inst.gcd
    grid = np.fft.rfft(trace.final.samples)[:half + 1] / m
    assert np.max(np.abs(_coefficients(chain)[half:] - grid)) <= bound


def test_hard_pole_edge_falls_on_the_grids_side():
    # 3·2 puts a line on harmonic 5, which the 5 brings back to DC
    inst, spec = parse_instance("3 2 5"), FilterSpec("brickwall", 5000.0)
    m = points_per_period(inst, NonidealityConfig())
    edge = np.fft.rfftfreq(m, d=grid_step(inst, NonidealityConfig()))[5]
    for f_star, passes in ((edge, True), (np.nextafter(edge, 0.0), False)):
        cfg = NonidealityConfig(bandwidth_model="hard", bandwidth_f_star=float(f_star))
        dc = run_and_measure(inst, cfg, spec)[0]
        assert (dc > 0.1) == passes
        assert harmonic.fold(inst, cfg, spec).dc == pytest.approx(dc, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=10),
       st.sampled_from([FilterSpec("brickwall", 5000.0), FilterSpec("none", 5000.0),
                        FilterSpec("one-pole", 5000.0, order=3, per_stage_gain=2.0)]))
def test_ideal_chain_dc_is_ideal_dc_without_a_grid(values, spec):
    inst = CpiInstance(tuple(values))

    def refuse(*args, **kwargs):
        raise AssertionError("the ideal chain built a grid")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calibration, "run_cascade", refuse)
        dc, sampled = measure_dc(inst, NonidealityConfig.ideal(), spec)
    assert sampled is None
    # each stage rounds once in mult_scale and once in amp_gain
    assert dc == pytest.approx(spec.dc_gain * float(ideal_dc(inst)),
                               rel=4 * inst.n * EPS, abs=0.0)


# The 5e-5 and 1-5e-5 quantiles of chi-square with 60 degrees of freedom, over
# 60: the mean of 60 squared standard normals lies between them with
# probability 0.9999.
_CHI2_60 = (0.440, 1.872)


@pytest.mark.parametrize("inst, cfg", [
    (parse_instance("3 1 4 1 5 9"), NonidealityConfig.ideal(noise_sigma=1e-3)),
    (parse_instance("3 1 4 1 5 9"), NonidealityConfig.ideal(noise_sigma=1e-3, oversample=64)),
    (parse_instance("12 7 30 22 5 17 9 26 14 3"),
     NonidealityConfig(mult_output_offset=4e-3, amp_offset=2.5e-4, bandwidth_f_star=1e6,
                       noise_sigma=1e-4, phase_error_sigma=0.05)),
    (parse_instance("12 7 30 22 5"),
     NonidealityConfig(mult_output_offset=4e-3, bandwidth_model="hard",
                       bandwidth_f_star=4e5, noise_sigma=1e-3)),
], ids=["ideal-16", "ideal-64", "nonideal-one-pole", "nonideal-hard"])
def test_adjoint_sigma_matches_the_grid_spread(inst, cfg):
    spec = FilterSpec("brickwall", 5000.0)
    z2 = []
    for seed in range(60):
        seeded = replace(cfg, seed=seed)
        chain = harmonic.fold(inst, seeded, spec)
        assert not chain.clips(cfg.supply_voltage) and _sigma(chain) > 0
        z2.append(((run_and_measure(inst, seeded, spec)[0] - chain.dc) / _sigma(chain)) ** 2)
    assert _CHI2_60[0] <= np.mean(z2) <= _CHI2_60[1]


def test_adjoint_sigma_is_the_grid_response_to_each_noise_sample(monkeypatch):
    # each stage's DC is linear in its m noise samples, with weights w_j; the
    # grid's response to a small pulse on each sample gives every w_j, and the
    # DC's variance from that stage is sigma^2 * sum(w_j^2); with and without phase
    # errors, so on complex and on real coefficients
    inst, spec = parse_instance("1 2 1 2"), FilterSpec("brickwall", 5000.0)
    monkeypatch.setattr(pipeline, "_stage_noise", lambda cfg, stage, m: pulses.get(stage))
    for phase_error_sigma in (1.0, 0.0):
        cfg = NonidealityConfig(mult_output_offset=4e-3, mult_input_offset=1e-3,
                                phase_error_sigma=phase_error_sigma, bandwidth_f_star=3e4, seed=3)
        chain = harmonic.fold(inst, replace(cfg, noise_sigma=1e-3), spec)
        m, size = points_per_period(inst, cfg), 1e-3
        pulses = {}
        base = run_and_measure(inst, cfg, spec)[0]
        for stage in range(inst.n - 1):
            weights = []
            for j in range(m):
                pulses = {stage: np.where(np.arange(m) == j, size, 0.0)}
                weights.append((run_and_measure(inst, cfg, spec)[0] - base) / size)
            assert chain.stage_sigma[stage] == pytest.approx(
                1e-3 * math.sqrt(sum(w * w for w in weights)), rel=1e-6)


def test_noise_sigma_falls_as_the_square_root_of_the_grid():
    inst, spec = parse_instance("3 1 4 1 5 9"), FilterSpec("brickwall", 5000.0)
    coarse = harmonic.fold(inst, NonidealityConfig.ideal(noise_sigma=1e-3), spec)
    fine = harmonic.fold(inst, NonidealityConfig.ideal(noise_sigma=1e-3, oversample=64), spec)
    m16 = points_per_period(inst, NonidealityConfig.ideal())
    m64 = points_per_period(inst, NonidealityConfig.ideal(oversample=64))
    assert _sigma(fine) == pytest.approx(_sigma(coarse) * math.sqrt(m16 / m64), rel=1e-12)


def test_measure_dc_in_domain_draws_one_normal_per_stage():
    inst, spec = parse_instance("3 2 5 4"), FilterSpec("brickwall", 5000.0)
    cfg = NonidealityConfig(mult_output_offset=4e-3, noise_sigma=1e-3, seed=4)
    chain = harmonic.fold(inst, cfg, spec)
    noise = sum(s * stage_noise_rng(cfg, k).standard_normal()
                for k, s in enumerate(chain.stage_sigma))
    assert len(chain.stage_sigma) == 3
    assert measure_dc(inst, cfg, spec) == (chain.dc + noise, None)


@pytest.mark.parametrize("cfg", [
    NonidealityConfig(freq_error_sigma=1e-6, noise_sigma=1e-4, seed=2),
    NonidealityConfig(mult_output_offset=5.0, amp_offset=8.0, seed=2),  # clips
    NonidealityConfig(noise_sigma=2.0, seed=2),  # within 8 noise RMS of the rails
], ids=["freq-error", "clipping", "noise-near-rails"])
def test_out_of_domain_is_the_grid_bit_for_bit(cfg):
    inst, spec = parse_instance("3 2 5"), FilterSpec("brickwall", 5000.0)
    if cfg.freq_error_sigma:
        with pytest.raises(ValueError, match="frequency errors"):
            harmonic.fold(inst, cfg, spec)
    else:
        assert harmonic.fold(inst, cfg, spec).clips(cfg.supply_voltage)
    dc, sampled = measure_dc(inst, cfg, spec)
    grid_dc, _, grid_sampled = run_and_measure(inst, cfg, spec)
    assert dc == grid_dc
    assert np.array_equal(sampled.values, grid_sampled.values)


def test_measure_dc_guards_before_the_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the engine ran before the guards")

    monkeypatch.setattr(harmonic, "fold", refuse)
    spec = FilterSpec("brickwall", 5000.0)
    with pytest.raises(GridTooLargeError):
        measure_dc(parse_instance("2 125001 5"), NonidealityConfig(), spec)
    with pytest.raises(ValueError, match="mult_output_offset sequence must have 2"):
        measure_dc(parse_instance("3 2 5"), NonidealityConfig(mult_output_offset=(1e-3,)), spec)


@pytest.mark.parametrize("cfg", [
    NonidealityConfig(mult_output_offset=(1e-3,) * 9),
    NonidealityConfig(mult_input_offset=(1e-3,)),
    NonidealityConfig(z_compensation=(1e-3,)),
    NonidealityConfig(source_amplitude=(1.0, 2.0)),
], ids=["9 output offsets", "1 input offset", "1 Z", "2 amplitudes"])
def test_engines_refuse_what_the_grid_refuses(cfg):
    # else a 9-entry offset sequence on two stages folds to 0.2408 V with two of its entries
    inst = parse_instance("3 2 5")
    with pytest.raises(ValueError) as grid:
        pipeline.run_cascade(inst, cfg)
    for engine in (lambda: harmonic.fold(inst, cfg, FilterSpec("none", 1.0)),
                   lambda: harmonic.forward(inst, cfg)):
        with pytest.raises(ValueError) as refused:
            engine()
        assert str(refused.value) == str(grid.value)


def test_fold_refuses_too_many_harmonics():
    inst = CpiInstance((1, harmonic.MAX_HARMONICS))
    with pytest.raises(harmonic.HarmonicsTooLargeError, match="harmonics"):
        harmonic.fold(inst, NonidealityConfig.ideal(), FilterSpec("none", 1.0))


def test_single_value_has_no_stage():
    inst, spec = parse_instance("4"), FilterSpec("brickwall", 5000.0)
    chain = harmonic.fold(inst, NonidealityConfig(noise_sigma=1e-3), spec)
    assert chain.dc == 0.0 and chain.stage_sigma == () and chain.node_bound == ()


def test_fold_peaks_under_four_real_or_two_complex_arrays(monkeypatch):
    # the superincreasing YES instance 1 2 4 … 2^12 2^13-1 has K = 2^14 - 2, and its
    # adjoint's longest sensitivity 1 + h_2 + … + h_13 = K - 2 harmonics: two buffers
    # of that, the pole's floats and one temporary are four float64 arrays of K+1
    # without phase errors, as are `forward`'s two buffers of K+1, its pole and its
    # temporary, freed before the adjoint; with phase errors the buffers and the
    # temporary are complex, 1.75 complex arrays of 2K+1
    inst = CpiInstance(tuple(1 << i for i in range(13)) + ((1 << 13) - 1,))
    spec = FilterSpec("brickwall", 5000.0)
    half = inst.total // inst.gcd
    assert half == 16_382
    forwards = []
    real_forward = harmonic.forward
    monkeypatch.setattr(harmonic, "forward",
                        lambda *args: forwards.append(args) or real_forward(*args))
    # no two sums of its values meet, so with the pole far above every tone the triangle
    # bound is Σ|c|, 1 V, and clears the rails; at 1.5 V sources it is 1.5^14 = 292 V,
    # so `forward` runs, and the hard pole's Σ|c| of 3.375 V keeps the harmonic route
    loose = NonidealityConfig(source_amplitude=1.5, bandwidth_model="hard",
                              bandwidth_f_star=1e5, noise_sigma=1e-4)
    real, complex_ = 4.1 * 8 * (half + 1), 2 * 16 * (2 * half + 1)
    for cfg, runs, limit in ((NonidealityConfig(bandwidth_f_star=1e12, noise_sigma=1e-4), 0, real),
                             (loose, 1, real),
                             (replace(loose, phase_error_sigma=0.05), 1, complex_)):
        harmonic.fold(inst, cfg, spec)  # imports and caches outside the trace
        forwards.clear()
        chain, peak = tracemalloc_peak(lambda: harmonic.fold(inst, cfg, spec))
        assert len(forwards) == runs
        assert not chain.clips(cfg.supply_voltage)
        assert peak < limit


@pytest.mark.parametrize("k", [*range(6), "phase-free"])
def test_coefficients_are_hermitian_and_bound_the_output(k):
    inst, cfg, spec = _chain(k)
    chain = _forwarded(inst, cfg, spec)
    # a product of cosines has real coefficients; a phase makes them complex
    assert chain.harmonics.dtype == (np.complex128 if cfg.phase_error_sigma else np.float64)
    half = inst.total // inst.gcd
    c = _coefficients(chain)
    assert len(c) == 2 * half + 1 and np.array_equal(c[half:], chain.harmonics)
    assert np.array_equal(c[:half], np.conj(c[:half:-1]))
    assert c[half].imag == 0.0
    assert chain.node_bound[-1] == pytest.approx(float(np.abs(c).sum()), rel=1e-12, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=6), st.integers(0, 60),
       st.booleans(), st.sampled_from(["hard", "one-pole", "none"]),
       st.sampled_from([3e4, 2e5, 1e6]), st.floats(-2e-3, 2e-3), st.sampled_from([0.05, 0.0]),
       st.integers(0, 2**16))
def test_fold_dc_matches_the_grid_on_random_chains(rest, above, largest_first, model, f_star,
                                                   off_in, phase, seed):
    # the largest value first makes every later shift h fall below the accumulated
    # length L; last, and above the sum of the rest, it falls above
    largest = max(rest) + above
    values = (largest, *rest) if largest_first else (*rest, largest)
    inst, spec = CpiInstance(values), FilterSpec("brickwall", 5000.0)
    cfg = NonidealityConfig(mult_output_offset=3e-3, mult_input_offset=off_in,
                            amp_offset=2.5e-4, phase_error_sigma=phase,
                            bandwidth_model=model, bandwidth_f_star=f_star, seed=seed)
    chain = _forwarded(inst, cfg, spec)
    assert not chain.clips(cfg.supply_voltage)
    dc = run_and_measure(inst, cfg, spec)[0]
    m = points_per_period(inst, cfg)
    assert abs(chain.dc - dc) <= m * EPS * abs(spec.dc_gain) * max(1.0, *chain.node_bound)


@pytest.mark.parametrize("text", ["4", "3 5", "5 3", "4 4"])
def test_one_and_two_values_match_the_grid(text):
    # n = 1 runs no adjoint stage and n = 2 one, which forms only harmonics 0 and h_0
    inst, spec = parse_instance(text), FilterSpec("brickwall", 5000.0)
    cfg = NonidealityConfig(mult_output_offset=4e-3, mult_input_offset=1e-3,
                            amp_offset=2.5e-4, phase_error_sigma=0.3, seed=5)
    chain = _forwarded(inst, replace(cfg, noise_sigma=1e-3), spec)
    half, m = inst.total // inst.gcd, points_per_period(inst, cfg)
    dc, trace, _ = run_and_measure(inst, cfg, spec)
    bound = m * EPS * abs(spec.dc_gain) * max((1.0, *chain.node_bound))
    assert abs(chain.dc - dc) <= bound
    grid = np.fft.rfft(trace.final.samples)[:half + 1] / m
    assert len(chain.harmonics) == half + 1
    assert np.max(np.abs(chain.harmonics - grid)) <= bound
    # the one stage's noise reaches the DC through the amplifier and the filter's DC gain
    expected = (1e-3 * abs(cfg.amp_gain * spec.dc_gain) / math.sqrt(m),) * (inst.n - 1)
    assert chain.stage_sigma == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("k", range(60))
def test_adjoint_dc_and_triangle_bound_against_forward(k):
    inst, cfg, spec = _nonideal_chain(k)
    harmonics, node_bound = harmonic.forward(inst, cfg)
    with pytest.MonkeyPatch.context() as mp:
        # the triangle bound clears the rails, so the fold keeps it
        mp.setattr(harmonic, "forward", None)
        chain = harmonic.fold(inst, cfg, spec)
    # the two passes sum the same injections in another order
    bound = 4 * EPS * abs(spec.dc_gain) * max(1.0, *node_bound)
    assert abs(chain.dc - spec.dc_gain * harmonics[0].real) <= bound
    # the triangle bound holds Σ|c| at every node
    assert not chain.clips(cfg.supply_voltage)
    assert len(chain.node_bound) == len(node_bound) == 2 * (inst.n - 1)
    assert all(b >= s * (1 - 1e-12) for b, s in zip(chain.node_bound, node_bound))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=9), st.booleans(),
       st.sampled_from(["hard", "one-pole", "none"]), st.sampled_from([3e4, 2e5, 1e6]),
       st.sampled_from([FilterSpec("brickwall", 5000.0),
                        FilterSpec("one-pole", 5000.0, order=2, per_stage_gain=2.0)]),
       st.sampled_from([1.0, 0.0]), st.integers(0, 2**16))
def test_adjoint_dc_is_forwards_on_random_chains(values, seq, model, f_star, spec, phase, seed):
    # input offsets, Z and per-stage sequences, which the grid-checked chains draw less often
    inst, rng, stages = CpiInstance(tuple(values)), np.random.default_rng(seed), len(values) - 1

    def per_stage(lo, hi):
        return tuple(rng.uniform(lo, hi, stages)) if seq else float(rng.uniform(lo, hi))

    cfg = NonidealityConfig(
        mult_output_offset=per_stage(-6e-3, 6e-3), mult_input_offset=per_stage(-3e-3, 3e-3),
        z_compensation=tuple(rng.uniform(-6e-3, 6e-3, stages)),
        source_amplitude=tuple(rng.uniform(0.8, 1.2, inst.n)),
        amp_offset=float(rng.normal(0, 1e-3)), phase_error_sigma=phase, bandwidth_model=model,
        bandwidth_f_star=f_star, seed=seed)
    chain = harmonic.fold(inst, cfg, spec)
    harmonics, node_bound = harmonic.forward(inst, cfg)
    bound = 4 * EPS * abs(spec.dc_gain) * max((1.0, *node_bound))
    assert abs(chain.dc - spec.dc_gain * harmonics[0].real) <= bound
    assert all(b >= s * (1 - 1e-12) for b, s in zip(chain.node_bound, node_bound))


# The benchmark's calibrated chain: per-stage output offsets (compensated through
# Z by `calibrate`), an amplifier offset, a one-pole output pole above every
# tone, noise, and the brickwall low-pass.
_CALIBRATED_CHAIN = (
    "mult_output_offset=" + ",".join(f"{4e-3 + 3e-4 * k:.4g}" for k in range(9)) + "\n"
    "amp_offset=2.5e-4\nbandwidth_model=one-pole\nbandwidth_f_star=1e9\nnoise_sigma=1e-4\n"
    "kind=brickwall\ncutoff_f0=5000\n")


def test_calibrated_decisions_never_run_forward(tmp_path, capsys, monkeypatch):
    from cospart.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("forward ran where the triangle bound clears the rails")

    cfg = tmp_path / "chain.cfg"
    cfg.write_text(_CALIBRATED_CHAIN)
    # calibrate measures the offsets on the first NO instance, one with no balanced run
    first = {"YES": "", "NO": "1 2 4 8 16 32 64 128 256 1024\n"}
    for kind in ("YES", "NO"):
        assert main(["gen", "--n", "10", "--max-mag", "300", "--kind", kind, "--count", "4",
                     "--seed", "7"]) == 0
        (tmp_path / f"{kind}.txt").write_text(first[kind] + capsys.readouterr().out)
    monkeypatch.setattr(harmonic, "forward", refuse)
    monkeypatch.setattr(calibration, "run_and_measure", refuse)
    cal = tmp_path / "cal"
    assert main(["calibrate", "--yes", str(tmp_path / "YES.txt"), "--no", str(tmp_path / "NO.txt"),
                 "--config", str(cfg), "--out", str(cal)]) == 0
    for kind in ("YES", "NO"):
        assert main(["decide", "--oracle", "analog", "--config", str(cfg), "--calibration",
                     str(cal / "calibration.txt"), "--batch", str(tmp_path / f"{kind}.txt")]) == 0
        out = capsys.readouterr().out
        assert out.count(f"answer={kind}\n") == out.count("answer=") == 4 + bool(first[kind])


@pytest.mark.parametrize("model, f_star, dc_volts", [("hard", 45e3, 0.0), ("one-pole", 15e3, 1.94)])
def test_loose_triangle_bound_takes_the_harmonic_route_after_forward(monkeypatch, model, f_star,
                                                                     dc_volts):
    # at 3 V per source the triangle bound reaches 27 V on the last amplifier output,
    # but the pole cuts (hard) or damps (one-pole) the 3·2 product's 50 kHz line,
    # which the 5 would bring back to DC, so Σ|c| stays below the rails
    inst, spec = parse_instance("3 2 5"), FilterSpec("brickwall", 5000.0)
    cfg = NonidealityConfig(source_amplitude=3.0, bandwidth_model=model, bandwidth_f_star=f_star)
    runs = []
    real = harmonic.forward
    monkeypatch.setattr(harmonic, "forward", lambda *args: runs.append(args) or real(*args))
    chain = harmonic.fold(inst, cfg, spec)
    assert len(runs) == 1 and chain.node_bound == real(inst, cfg)[1]
    assert not chain.clips(cfg.supply_voltage) and max(chain.node_bound) < 10.0
    dc, sampled = measure_dc(inst, cfg, spec)
    assert sampled is None and dc == chain.dc == pytest.approx(dc_volts, abs=5e-3)
    m = points_per_period(inst, cfg)
    grid = run_and_measure(inst, cfg, spec)[0]
    assert abs(dc - grid) <= m * EPS * abs(spec.dc_gain) * max(chain.node_bound)
