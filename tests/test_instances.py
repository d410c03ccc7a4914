from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cospart.exact import decide_dp
from cospart.instances import (CpiInstance, GenerationError, InstanceError, MAX_TOTAL,
                               alignment_time, load_instances, nyquist_frequency,
                               parse_instance, random_instance, scale_instance,
                               serialize_instance)


def test_parse_basic():
    assert parse_instance("3 2 5").values == (3, 2, 5)
    assert parse_instance("3 6 4").values == (3, 6, 4)


def test_parse_folds_signs():
    assert parse_instance("-3 2 5").values == (3, 2, 5)
    assert parse_instance("-1,-2,-3").values == (1, 2, 3)


def test_parse_commas_and_whitespace():
    assert parse_instance(" 7,11  13 ").values == (7, 11, 13)


@pytest.mark.parametrize("bad", ["", "   ", "3 0 5", "3 x 5", "1.5 2"])
def test_parse_rejects(bad):
    with pytest.raises(InstanceError):
        parse_instance(bad)


def test_parse_overflow():
    with pytest.raises(InstanceError):
        parse_instance(f"{MAX_TOTAL - 1} {MAX_TOTAL - 1}")


def test_construct_rejects_non_integers():
    with pytest.raises(InstanceError):
        CpiInstance((1.5, 2))
    with pytest.raises(InstanceError):
        CpiInstance(())


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=20))
def test_serialize_parse_round_trip(values):
    inst = CpiInstance(tuple(values))
    assert parse_instance(serialize_instance(inst)) == inst


def test_load_instances_skips_comments():
    text = "# header\n3 2 5\n\n# mid\n3 6 4\n"
    insts = load_instances(text)
    assert [i.values for i in insts] == [(3, 2, 5), (3, 6, 4)]


def test_scale_examples():
    inst = parse_instance("3 2 5")
    lam = scale_instance(inst, f_star=120.0, margin=5 / 6)
    assert lam == pytest.approx(10.0)
    assert tuple(lam * v for v in inst.values) == pytest.approx((30.0, 20.0, 50.0))

    assert scale_instance(parse_instance("1"), f_star=100.0, margin=0.5) == pytest.approx(50.0)

    lam = scale_instance(parse_instance("7 11 13"), f_star=62.0, margin=0.5)
    assert lam == pytest.approx(1.0)


def test_scale_keeps_sum_below_limit():
    inst = parse_instance("9 9 9 9")
    lam = scale_instance(inst, f_star=10.0, margin=0.9)
    assert sum(lam * v for v in inst.values) < 10.0


def test_scale_validates():
    inst = parse_instance("1 2")
    with pytest.raises(ValueError):
        scale_instance(inst, f_star=0.0, margin=0.5)
    with pytest.raises(ValueError):
        scale_instance(inst, f_star=10.0, margin=1.0)


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=12),
       st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7))
def test_scaling_never_changes_answer(values, p, q):
    # rational lambda = p/q: clear denominators and compare decisions
    inst = CpiInstance(tuple(values))
    scaled_int = CpiInstance(tuple(p * v for v in values))
    base_scaled = CpiInstance(tuple(q * v for v in values))
    assert decide_dp(scaled_int) == decide_dp(base_scaled) == decide_dp(inst)


def test_alignment_examples():
    assert alignment_time(parse_instance("30 60 40")) == Fraction(1, 10)
    assert alignment_time(parse_instance("3 2 5")) == Fraction(1, 1)
    assert alignment_time(parse_instance("7")) == Fraction(1, 7)


@given(st.lists(st.integers(min_value=1, max_value=10**4), min_size=1, max_size=10))
def test_alignment_times_gcd_is_one(values):
    inst = CpiInstance(tuple(values))
    assert alignment_time(inst) * inst.gcd == 1


def test_nyquist_examples():
    assert nyquist_frequency(parse_instance("3 2 5")) == 20
    assert nyquist_frequency(parse_instance("1")) == 2
    assert nyquist_frequency(parse_instance("30 90 20 40")) == 360


@pytest.mark.parametrize("kind", ["YES", "NO"])
@pytest.mark.parametrize("seed", range(10))
def test_random_instance_labels_verified(kind, seed):
    inst = random_instance(n=4, max_mag=20, kind=kind, seed=seed)
    assert decide_dp(inst) == (kind == "YES")
    assert inst.n == 4


def test_random_instance_minimal_yes():
    assert random_instance(n=2, max_mag=1, kind="YES", seed=0).values == (1, 1)


def test_random_instance_two_no():
    inst = random_instance(n=2, max_mag=9, kind="NO", seed=3)
    assert inst.values[0] != inst.values[1]


def test_random_instance_impossible_no():
    with pytest.raises(GenerationError):
        random_instance(n=2, max_mag=1, kind="NO", seed=0)


def test_random_instance_validates():
    with pytest.raises(ValueError):
        random_instance(n=1, kind="YES")
    with pytest.raises(ValueError):
        random_instance(n=3, max_mag=0)
    with pytest.raises(ValueError, match="kind must be YES or NO, got 'maybe'"):
        random_instance(n=3, kind="maybe")
    with pytest.raises(ValueError, match="n must be at least 1"):
        random_instance(n=0, kind="NO")
