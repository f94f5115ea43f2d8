"""Every name the benchmark's tracer wraps still exists in the package, and
its counters read the results they are given.  ``perfbench/tracer.py`` is
loaded by path, as ``perfbench/run.py --trace 1`` loads it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from isotropy import (
    ExponentialCovariance,
    GridSpec,
    Rect,
    RngStream,
    WindowSpec,
    default_lag_set,
    gbbb_variance,
    simulate_grf,
    subsample_variance,
    uniform_locations,
)
from isotropy.estimators import EstimatorConfig, KernelSpec, pair_table

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS
COUNTERS = {name: counter for _, _, name, counter in TARGETS if counter is not None}


@pytest.mark.parametrize("module, path", [(t[0], t[1]) for t in TARGETS],
                         ids=[t[2] for t in TARGETS])
def test_target_resolves(module, path):
    mod = importlib.import_module(module)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in getattr(mod, cls_name).__dict__
    else:
        assert callable(getattr(mod, path))


def _two_ints(counts):
    return len(counts) == 2 and all(type(c) is int for c in counts)


def test_counters_read_real_results():
    assert set(COUNTERS) == {"resampling.subsample_variance", "resampling.gbbb_variance"}
    cov = ExponentialCovariance.from_effective_range(6.0)
    g = GridSpec(18, 12)
    grid_ds = simulate_grf(g.locations(), cov, rng=RngStream(1), grid=g)
    sub = subsample_variance(grid_ds, pair_table(grid_ds, default_lag_set(), EstimatorConfig()),
                             WindowSpec(4, 3))
    assert COUNTERS["resampling.subsample_variance"](sub) == (
        sub.n_windows, sub.window_ghats.shape[0])
    assert _two_ints(COUNTERS["resampling.subsample_variance"](sub))

    points = simulate_grf(uniform_locations(300, 16.0, 10.0, RngStream(2)), cov,
                          rng=RngStream(3))
    config = EstimatorConfig("kernel_covariogram", KernelSpec("epanechnikov"), 0.6)
    boot = gbbb_variance(points, pair_table(points, default_lag_set(), config),
                         WindowSpec(4, 2), 20, RngStream(4), Rect(0, 0, 16, 10))
    assert COUNTERS["resampling.gbbb_variance"](boot) == (20, boot.n_success)
    assert _two_ints(COUNTERS["resampling.gbbb_variance"](boot))
