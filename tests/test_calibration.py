import math
import warnings

import numpy as np
import pytest

from cospart import calibration
from cospart.calibration import (DecisionThreshold, LabelError,
                                 NonSeparableError, auto_threshold, bootstrap_threshold,
                                 compensate, chain_digest, decide_analog,
                                 decision_record, fixed_threshold, measure_stage_offsets,
                                 perturb_to_no_instance, residue_floor, run_and_measure,
                                 threshold_from_text, threshold_to_text)
from cospart.dsp import FilterSpec
from cospart.exact import solve_exact
from cospart.instances import parse_instance, random_instance
from cospart.pipeline import BandwidthError, NonidealityConfig


def _table_cfg(n_stages, seed=42):
    rng = np.random.default_rng(seed)
    return NonidealityConfig(
        mult_output_offset=tuple(rng.normal(4.5e-3, 2e-4, n_stages)),
        mult_input_offset=tuple(rng.normal(5e-3, 5e-4, n_stages)),
    )


def test_measure_offsets_ideal(ideal_cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NO instance draws no warning
        offsets = measure_stage_offsets(parse_instance("3 7"), ideal_cfg)
    assert offsets == pytest.approx((0.0,), abs=1e-12)


def test_measure_offsets_three_stage_values():
    cfg = _table_cfg(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        offsets = measure_stage_offsets(parse_instance("1 9 1 4"), cfg)
    assert len(offsets) == 3
    for dc in offsets:
        assert 3e-3 < dc < 7e-3  # near the configured offset scale


def test_measure_offsets_warns_on_yes_instance(ideal_cfg):
    with pytest.warns(UserWarning, match="YES instance"):
        offsets = measure_stage_offsets(parse_instance("3 2 5"), ideal_cfg)
    assert len(offsets) == 2


def test_compensate_drops_no_instance_dc():
    inst = parse_instance("3 6 4")
    cfg = _table_cfg(2)
    spec = FilterSpec("none", 5e3)
    before, _, _ = run_and_measure(inst, cfg, spec)
    corrected = compensate(cfg, measure_stage_offsets(inst, cfg))
    after, _, _ = run_and_measure(inst, corrected, spec)
    assert abs(after) < abs(before)
    assert abs(before) > 5 * abs(after)


def test_compensate_converges_to_fixed_point():
    # round two corrects the second-order cross term left by round one;
    # after that re-measuring changes nothing
    inst = parse_instance("3 6 4")
    cfg = _table_cfg(2)
    once = compensate(cfg, measure_stage_offsets(inst, cfg))
    twice = compensate(once, measure_stage_offsets(inst, once))
    thrice = compensate(twice, measure_stage_offsets(inst, twice))
    assert np.allclose(once.z_compensation, twice.z_compensation, atol=1e-4)
    assert np.allclose(twice.z_compensation, thrice.z_compensation, atol=1e-12)


def test_compensate_noop_on_zero_report(ideal_cfg):
    offsets = measure_stage_offsets(parse_instance("3 7"), ideal_cfg)
    assert compensate(ideal_cfg, offsets).z_compensation == pytest.approx((0.0,))


def test_compensate_arity_mismatch():
    cfg = NonidealityConfig(z_compensation=(0.0, 0.0, 0.0))
    offsets = measure_stage_offsets(parse_instance("3 6 4"), NonidealityConfig.ideal())
    with pytest.raises(ValueError):
        compensate(cfg, offsets)


def test_perturb_probability_closed_form():
    inst = parse_instance("2 3 5")
    perturbed, p = perturb_to_no_instance(inst, sigma=1.0, delta=1.0, seed=0)
    assert len(perturbed) == 3
    assert p == pytest.approx(math.erf(1.0 / math.sqrt(6.0)))


def test_perturb_single_sigma_equals_delta():
    _, p = perturb_to_no_instance(parse_instance("5"), sigma=1.0, delta=1.0)
    assert p == pytest.approx(0.6827, abs=1e-4)


def test_perturb_large_sigma_vanishes():
    _, p = perturb_to_no_instance(parse_instance("2 3"), sigma=1e6, delta=1.0)
    assert p < 1e-6


def test_perturb_refuses_zero_sigma():
    with pytest.raises(ValueError, match="sigma must be positive"):
        perturb_to_no_instance(parse_instance("2 3"), sigma=0.0, delta=1.0)


def test_perturb_monte_carlo():
    inst = parse_instance("2 3 5")
    sigma, delta, trials = 1.0, 1.0, 2000
    hits = 0
    p = None
    for seed in range(trials):
        perturbed, p = perturb_to_no_instance(inst, sigma, delta, seed=seed)
        err = sum(perturbed) - inst.total
        hits += int(abs(err) <= delta)
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * se


def test_bootstrap_ideal_bands(ideal_cfg, brickwall):
    thr = bootstrap_threshold([parse_instance("3 2 5"), parse_instance("1 1")],
                              [parse_instance("3 6 4"), parse_instance("2 3")],
                              ideal_cfg, brickwall)
    assert thr.separable
    assert thr.no_band_max == pytest.approx(0.0, abs=1e-9)
    assert thr.yes_band_min == pytest.approx(0.25, abs=1e-6)
    assert 0 < thr.cut < thr.yes_band_min
    assert thr.training_size == 4


def test_bootstrap_cut_between_bands_below_zero(brickwall):
    # a -1 V amplifier offset puts both bands below 0 V: (-1.0, -0.9975)
    cfg = NonidealityConfig.ideal(amp_offset=-1.0, amp_gain=1.0)
    thr = bootstrap_threshold([parse_instance("3 2 5")], [parse_instance("3 6 4")],
                              cfg, brickwall)
    assert thr.separable
    assert thr.yes_band_min < 0
    assert thr.no_band_max < thr.cut < thr.yes_band_min


def test_bootstrap_cut_treats_residue_band_edge_as_zero(monkeypatch, brickwall):
    # a NO band of float residue once pulled the geometric-mean cut to 4.7e-10 V
    yes, no = [parse_instance("3 2 5")], [parse_instance("3 6 4")]
    cfg = NonidealityConfig.ideal()

    def bands(yes_min, no_max):
        monkeypatch.setattr(calibration, "_measured_dc",
                            lambda inst, cfg, spec: yes_min if solve_exact(inst) else no_max)
        return bootstrap_threshold(yes, no, cfg, brickwall)

    thr = bands(2.2e-3, 1.1e-16)
    assert thr.separable and (thr.no_band_max, thr.yes_band_min) == (1.1e-16, 2.2e-3)
    assert thr.cut == 0.5 * 2.2e-3
    assert bands(2.2e-3, 2.5e-4).cut == math.sqrt(2.5e-4 * 2.2e-3)  # a level, not residue
    assert bands(1.1e-16, -1e-3).cut == 0.5 * (1.1e-16 - 1e-3)  # both within or below


def test_bootstrap_cuts_between_bands_whose_no_edge_is_residue_above_half_the_yes_edge(
        monkeypatch, brickwall):
    # half the YES edge, 3.5e-14 V, would cut below the NO edge of 4.2e-14 V
    yes, no = [parse_instance("3 2 5")], [parse_instance("3 6 4")]
    cfg = NonidealityConfig.ideal()
    floor = max(residue_floor(inst, cfg, brickwall) for inst in yes + no)
    yes_min, no_max = 1.5 * floor, 0.9 * floor
    monkeypatch.setattr(calibration, "_measured_dc",
                        lambda inst, cfg, spec: yes_min if solve_exact(inst) else no_max)
    thr = bootstrap_threshold(yes, no, cfg, brickwall)
    assert thr.separable and 0.5 * yes_min < no_max
    assert thr.cut == 0.5 * (no_max + yes_min)
    assert thr.no_band_max < thr.cut < thr.yes_band_min
    threshold_from_text(threshold_to_text(thr))  # loads: its cut lies between its bands


@pytest.mark.parametrize("cut, no_max, yes_min", [
    (-1.0, 0.0, 0.2), (0.0, 0.0, 0.2), (0.2, 0.0, 0.2), (0.1, 5.0, 0.2)])
def test_threshold_text_refuses_a_separable_cut_outside_its_bands(cut, no_max, yes_min):
    thr = DecisionThreshold(cut=cut, no_band_max=no_max, yes_band_min=yes_min, training_size=2,
                            chain="0123456789ab")
    with pytest.raises(ValueError, match=f"^calibration cut={cut!r} does not lie between "
                                         f"no_band_max={no_max!r} and yes_band_min={yes_min!r}$"):
        threshold_from_text(threshold_to_text(thr))
    # overlapping bands have no cut between them; deciding on them raises NonSeparableError
    loose = DecisionThreshold(cut=cut, no_band_max=no_max, yes_band_min=yes_min, training_size=2,
                              separable=False, chain="0123456789ab")
    assert threshold_from_text(threshold_to_text(loose))[0] == loose


def test_residue_floor_from_amplitudes_and_sample_count(brickwall):
    inst = parse_instance("3 6 4")  # 210 points per period
    eps = np.finfo(float).eps
    assert residue_floor(inst, NonidealityConfig.ideal(), brickwall) == pytest.approx(210 * eps)
    # peak (2 * 1 * 0.5) * (0.1 * 20)^2 = 4 V, within the rails; DC gain 2^3
    cfg = NonidealityConfig.ideal(source_amplitude=(2.0, 1.0, 0.5), amp_gain=20.0)
    gained = FilterSpec("one-pole", 5e3, order=3, per_stage_gain=2.0)
    assert residue_floor(inst, cfg, gained) == pytest.approx(210 * eps * 8 * 4)
    # a peak beyond the rails is clamped to them
    loud = NonidealityConfig.ideal(source_amplitude=5.0)
    assert residue_floor(inst, loud, brickwall) == pytest.approx(210 * eps * 10)


def test_bootstrap_table_like_bands():
    cfg = _table_cfg(2)
    spec = FilterSpec("none", 5e3)
    corrected = compensate(cfg, measure_stage_offsets(parse_instance("3 6 4"), cfg))
    thr = bootstrap_threshold([parse_instance("3 7 4")], [parse_instance("3 6 4")],
                              corrected, spec)
    assert thr.separable
    assert thr.yes_band_min > 3 * abs(thr.no_band_max)
    assert thr.no_band_max < thr.cut < thr.yes_band_min


def test_bootstrap_refuses_an_empty_training_set(ideal_cfg, brickwall):
    with pytest.raises(ValueError, match="both training sets must be non-empty"):
        bootstrap_threshold([parse_instance("3 2 5")], [], ideal_cfg, brickwall)
    with pytest.raises(ValueError, match="both training sets must be non-empty"):
        bootstrap_threshold([], [parse_instance("3 6 4")], ideal_cfg, brickwall)


def test_bootstrap_rejects_bad_labels(ideal_cfg, brickwall):
    with pytest.raises(LabelError):
        bootstrap_threshold([parse_instance("3 6 4")], [parse_instance("2 3")],
                            ideal_cfg, brickwall)
    with pytest.raises(LabelError):
        bootstrap_threshold([parse_instance("3 2 5")], [parse_instance("1 1")],
                            ideal_cfg, brickwall)


def test_bootstrap_nonseparable_flagged(brickwall):
    # strong frequency errors destroy the YES DC, collapsing both bands to ~0
    cfg = NonidealityConfig(freq_error_sigma=0.05, bandwidth_model="none", seed=1)
    thr = bootstrap_threshold([parse_instance("3 2 5")], [parse_instance("3 6 4")],
                              cfg, brickwall)
    if not thr.separable:
        with pytest.raises(NonSeparableError):
            decide_analog(parse_instance("3 2 5"), cfg, brickwall, thr)
    else:
        # seeds can land either way; the flagged path must at least be consistent
        assert thr.no_band_max < thr.yes_band_min


def test_threshold_gain_invariance(ideal_cfg, brickwall):
    yes, no = [parse_instance("3 2 5")], [parse_instance("3 6 4")]
    base = bootstrap_threshold(yes, no, ideal_cfg, brickwall)
    r = 1.5
    scaled_cfg = NonidealityConfig.ideal(source_amplitude=r)
    scaled = bootstrap_threshold(yes, no, scaled_cfg, brickwall)
    assert scaled.yes_band_min == pytest.approx(base.yes_band_min * r**3, rel=1e-9)
    for inst in yes + no:
        a = decide_analog(inst, ideal_cfg, brickwall, base).answer
        b = decide_analog(inst, scaled_cfg, brickwall, scaled).answer
        assert a == b


def test_decide_examples(ideal_cfg, brickwall):
    d = decide_analog(parse_instance("3 2 5"), ideal_cfg, brickwall, fixed_threshold(0.01))
    assert d.answer == "YES"
    assert d.dc_measured == pytest.approx(0.25, abs=1e-9)
    assert d.margin == pytest.approx(0.24, abs=1e-9)

    d = decide_analog(parse_instance("3 6 4"), ideal_cfg, brickwall, fixed_threshold(0.01))
    assert d.answer == "NO"
    assert abs(d.dc_measured) < 1e-9


def test_decide_strict_bandwidth(monkeypatch):
    cfg = NonidealityConfig()  # finite f* = 120 kHz
    spec = FilterSpec("brickwall", 5e3)
    thr = fixed_threshold(0.01)
    decide_analog(parse_instance("3 6 4"), cfg, spec, thr)  # warning tolerated

    def refuse(*args, **kwargs):
        raise AssertionError("strict mode simulated the chain")

    # the warning depends only on the instance and f*, so nothing is simulated
    monkeypatch.setattr(calibration, "run_cascade", refuse)
    with pytest.raises(BandwidthError, match="exceeds f"):
        decide_analog(parse_instance("3 6 4"), cfg, spec, thr, strict=True)


def test_decide_requires_separable(ideal_cfg, brickwall):
    thr = DecisionThreshold(cut=0.1, no_band_max=0.2, yes_band_min=0.05,
                            training_size=2, separable=False)
    with pytest.raises(NonSeparableError):
        decide_analog(parse_instance("3 2 5"), ideal_cfg, brickwall, thr)


def test_end_to_end_soundness_sample(ideal_cfg, brickwall):
    from cospart.exact import decide_dp
    for seed in range(25):
        kind = "YES" if seed % 2 else "NO"
        inst = random_instance(n=3 + seed % 5, max_mag=20, kind=kind, seed=seed)
        d = decide_analog(inst, ideal_cfg, brickwall, auto_threshold(inst, brickwall))
        assert (d.answer == "YES") == decide_dp(inst)


def test_decision_record_fields(ideal_cfg, brickwall):
    inst = parse_instance("3 2 5")
    d = decide_analog(inst, ideal_cfg, brickwall, fixed_threshold(0.01))
    record = decision_record(d, inst, chain_digest(ideal_cfg, brickwall), ideal_cfg.seed)
    items = dict(line.split("=", 1) for line in record.strip().splitlines())
    assert items["instance"] == "3 2 5"
    assert items["answer"] == "YES"
    assert float(items["dc_volts"]) == pytest.approx(0.25)
    assert items["config_hash"] == chain_digest(ideal_cfg, brickwall)
    assert items["seed"] == "0"


def test_negative_zero_is_the_same_chain(brickwall):
    # -0.0 == 0.0, so configs that differ only in a zero's sign are one chain;
    # so are configs that differ only in an int and the float it equals
    plus = NonidealityConfig(amp_offset=0.0, mult_output_offset=(4e-3, 0.0))
    minus = NonidealityConfig(amp_offset=-0.0, mult_output_offset=(4e-3, -0.0))
    for a, b in ((plus, minus),
                 (NonidealityConfig(f_base=10**20), NonidealityConfig(f_base=1e20)),
                 (NonidealityConfig(bandwidth_f_star=10**13),
                  NonidealityConfig(bandwidth_f_star=1e13))):
        assert a == b
        assert chain_digest(a, brickwall) == chain_digest(b, brickwall)
    thr = bootstrap_threshold([parse_instance("3 2 5")], [parse_instance("3 6 4")],
                              plus, brickwall)
    assert decide_analog(parse_instance("3 2 5"), minus, brickwall, thr).answer == "YES"
    assert decide_analog(parse_instance("3 6 4"), minus, brickwall, thr).answer == "NO"


def test_filter_order_given_as_a_float_is_the_int_chain(ideal_cfg):
    spec = FilterSpec("one-pole", 5e3, order=2.0)
    assert type(spec.order) is int and spec == FilterSpec("one-pole", 5e3, order=2)
    assert chain_digest(ideal_cfg, spec) == chain_digest(ideal_cfg, FilterSpec("one-pole", 5e3,
                                                                               order=2))


def test_filter_given_ints_is_the_float_chain(ideal_cfg):
    # equal filters store their values alike, so they print, and are named, alike
    for a, b in ((FilterSpec("brickwall", 10**13), FilterSpec("brickwall", 1e13)),
                 (FilterSpec("one-pole", 5e3, per_stage_gain=2),
                  FilterSpec("one-pole", 5e3, per_stage_gain=2.0))):
        assert a == b
        assert chain_digest(ideal_cfg, a) == chain_digest(ideal_cfg, b)


def test_seed_given_as_a_float_is_the_int_seed(brickwall):
    cfg = NonidealityConfig(noise_sigma=1e-3, seed=1.0)
    assert type(cfg.seed) is int and cfg == NonidealityConfig(noise_sigma=1e-3, seed=1)
    assert chain_digest(cfg, brickwall) == chain_digest(NonidealityConfig(noise_sigma=1e-3),
                                                        brickwall)
    inst = parse_instance("3 2 5")
    assert decide_analog(inst, cfg, brickwall).dc_measured == decide_analog(
        inst, NonidealityConfig(noise_sigma=1e-3, seed=1), brickwall).dc_measured


def test_oversample_given_as_a_float_is_the_int_grid(brickwall):
    cfg = NonidealityConfig(oversample=32.0)
    assert type(cfg.oversample) is int and cfg == NonidealityConfig(oversample=32)
    inst = parse_instance("3 2 5")
    assert decide_analog(inst, cfg, brickwall).dc_measured == decide_analog(
        inst, NonidealityConfig(oversample=32), brickwall).dc_measured


@pytest.mark.parametrize("make, field", [
    (lambda: NonidealityConfig(oversample=16.5), "oversample"),
    (lambda: NonidealityConfig(oversample="16"), "oversample"),
    (lambda: NonidealityConfig(seed=0.5), "seed"),
    (lambda: NonidealityConfig(seed=math.nan), "seed"),
    (lambda: FilterSpec("brickwall", 5e3, order=1.5), "order"),
    (lambda: FilterSpec("brickwall", 5e3, order=math.inf), "order"),
], ids=["oversample-16.5", "oversample-str", "seed-0.5", "seed-nan", "order-1.5", "order-inf"])
def test_integer_fields_refuse_other_values(make, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: NonidealityConfig(noise_sigma=-0.01), "noise_sigma must be non-negative"),
    (lambda: NonidealityConfig(noise_sigma=math.nan), "noise_sigma must be finite"),
    (lambda: NonidealityConfig(phase_error_sigma=-0.1),
     "phase_error_sigma must be non-negative"),
    (lambda: NonidealityConfig(freq_error_sigma=-1e-6), "freq_error_sigma must be non-negative"),
    (lambda: NonidealityConfig(f_base=math.nan), "f_base must be finite"),
    (lambda: NonidealityConfig(f_base=0), "f_base must be positive"),
    (lambda: NonidealityConfig(supply_voltage=-1), "supply_voltage must be positive"),
    (lambda: NonidealityConfig(bandwidth_f_star=0), "bandwidth_f_star must be positive"),
    (lambda: NonidealityConfig(bandwidth_f_star=-math.inf), "bandwidth_f_star must be finite"),
    (lambda: NonidealityConfig(amp_gain=math.inf), "amp_gain must be finite"),
    (lambda: NonidealityConfig(mult_output_offset=(4e-3, math.nan)),
     "mult_output_offset must be finite"),
    (lambda: NonidealityConfig(z_compensation=(math.inf,)), "z_compensation must be finite"),
    (lambda: FilterSpec("brickwall", math.nan), "cutoff_f0 must be positive"),
], ids=["noise-negative", "noise-nan", "phase-negative", "freq-negative", "f_base-nan",
        "f_base-0", "supply-negative", "f_star-0", "f_star-minus-inf", "amp_gain-inf",
        "offset-entry-nan", "z-entry-inf", "cutoff-nan"])
def test_values_the_two_routes_read_differently_are_refused(make, message):
    # each of these was read one way by the harmonic route and another by the
    # grid, or printed a NaN or negative DC, or failed deep inside numpy
    with pytest.raises(ValueError, match=f"^{message}, got "):
        make()


def test_threshold_round_trip():
    thr = DecisionThreshold(cut=0.12, no_band_max=0.07, yes_band_min=0.2,
                            training_size=4, separable=True, chain="0123456789ab")
    text = threshold_to_text(thr, z_compensation=(-0.004, -0.0041))
    loaded, z = threshold_from_text(text)
    assert loaded == thr
    assert z == pytest.approx((-0.004, -0.0041))


def test_threshold_text_writes_z_and_offsets_as_every_float_line():
    # .12g with -0.0 as 0, as `fields_to_text` writes a config's floats
    thr = DecisionThreshold(cut=0.12, no_band_max=0.07, yes_band_min=0.2, training_size=4,
                            chain="0123456789ab")
    text = threshold_to_text(thr, z_compensation=(-0.0, -1 / 3), offsets=(1 / 3, -0.0),
                             offset_instance=parse_instance("1 2 4"))
    assert "\nz_compensation=0,-0.333333333333\nper_stage_dc=0.333333333333,0\n" in text
    assert threshold_from_text(text)[1] == (0.0, -0.333333333333)


class _SerialPool:
    """Stands in for ThreadPoolExecutor: records ``max_workers``, maps in this thread."""

    created: list = []

    def __init__(self, max_workers=None):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("affinity, cpu_count, jobs, items, workers", [
    ({0, 1}, 64, 5000, 10, 2),     # capped by the CPUs this process may use
    ({0, 1, 2, 3}, 64, 3, 10, 3),  # capped by jobs
    ({0, 1, 2, 3}, 64, 5000, 3, 3),  # capped by the items
    (None, 3, 5000, 10, 3),        # no affinity call: os.cpu_count()
    ({0}, 64, 5000, 10, None),     # one CPU: no pool at all
])
def test_parallel_map_caps_workers(monkeypatch, affinity, cpu_count, jobs, items, workers):
    import concurrent.futures
    import os
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "created", [])
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert calibration.parallel_map(abs, list(range(-items, 0)), jobs) == \
        list(range(items, 0, -1))
    assert _SerialPool.created == ([] if workers is None else [workers])


@pytest.mark.parametrize("freq_error_sigma, route", [(0.0, "harmonic"), (1e-6, "grid")])
def test_concurrent_measure_dc_stays_bit_identical(brickwall, freq_error_sigma, route):
    # as `parallel_map` runs it: four threads on two cores or fewer, switching
    # as often as the interpreter allows
    import sys
    import threading
    inst = parse_instance("2 3 5 4")
    cfg = NonidealityConfig(mult_output_offset=4e-3, mult_input_offset=1e-3,
                            amp_offset=2.5e-4, bandwidth_f_star=1e6, noise_sigma=1e-4,
                            phase_error_sigma=0.05, freq_error_sigma=freq_error_sigma, seed=4)
    dc, sampled = calibration.measure_dc(inst, cfg, brickwall)
    assert (sampled is None) == (route == "harmonic")
    results = []

    def worker():
        for _ in range(5):
            results.append(calibration.measure_dc(inst, cfg, brickwall))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 20
    for dc_i, sampled_i in results:
        assert dc_i == dc
        if sampled is not None:
            assert np.array_equal(sampled_i.values, sampled.values)
