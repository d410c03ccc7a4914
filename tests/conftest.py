import tracemalloc

import pytest

from cospart import FilterSpec, NonidealityConfig


def tracemalloc_peak(fn):
    """Run ``fn()``; return its result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def ideal_cfg():
    return NonidealityConfig.ideal()


@pytest.fixture
def brickwall():
    return FilterSpec(kind="brickwall", cutoff_f0=5000.0)
