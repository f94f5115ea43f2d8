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
    GrfSampler,
    Rect,
    RngStream,
    WindowSpec,
    default_lag_set,
    gbbb_variance,
    subsample_variance,
    uniform_locations,
)
from isotropy.cli import main
from isotropy.estimators import EstimatorConfig, KernelSpec, pair_table
from isotropy.io import write_dataset_csv
from isotropy.study import GridDesign, MethodSpec, StudyConfig, UniformDesign, run_power_study

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
    grid_ds = GrfSampler(g.locations(), cov).draw(RngStream(1), grid=g)
    sub = subsample_variance(grid_ds, pair_table(grid_ds, default_lag_set(), EstimatorConfig()),
                             WindowSpec(4, 3))
    assert COUNTERS["resampling.subsample_variance"](sub) == (
        sub.n_windows, sub.window_ghats.shape[0])
    assert _two_ints(COUNTERS["resampling.subsample_variance"](sub))

    points = GrfSampler(uniform_locations(300, 16.0, 10.0, RngStream(2)), cov).draw(
        RngStream(3))
    config = EstimatorConfig("kernel_covariogram", KernelSpec("epanechnikov"), 0.6)
    boot = gbbb_variance(points, pair_table(points, default_lag_set(), config),
                         WindowSpec(4, 2), 20, RngStream(4), Rect(0, 0, 16, 10))
    assert COUNTERS["resampling.gbbb_variance"](boot) == (20, boot.n_success)
    assert _two_ints(COUNTERS["resampling.gbbb_variance"](boot))


def test_test_spans_see_study_blocks_and_cli_calls(tmp_path):
    # the studies and the CLI once ran functions the tracer does not wrap,
    # so every test span read 0 calls
    data = tmp_path / "grid.csv"
    g = GridSpec(18, 12)
    write_dataset_csv(GrfSampler(g.locations(), ExponentialCovariance.from_effective_range(6.0))
                      .draw(RngStream(1), grid=g), data)
    one_cell = {"effective_ranges": (6.0,), "anisotropies": ((1.0, 0.0),), "replicates": 20}
    module = _load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        run_power_study(StudyConfig(GridDesign(18, 12), (MethodSpec("gsc-g"), MethodSpec("lz")),
                                    **one_cell))
        run_power_study(StudyConfig(UniformDesign(300, 16.0, 10.0),
                                    (MethodSpec("gsc-u"), MethodSpec("ms", n_boot=10)),
                                    **one_cell))
        assert main(["test", str(data), "--method", "gsc-g"]) == 0
    finally:
        tracer.uninstall()
    calls = {name: row["calls"]
             for name, row in module.summarize(tracer.names, tracer.arrays()).items()}
    assert {name: calls.get(name, 0) for name in (*module.TEST_SPANS,
                                                  "spectral_tests.lz_complete_test")} == {
        "spatial_tests.gsc_gridded_test": 2, "spatial_tests.gsc_nongridded_test": 1,
        "spatial_tests.ms_test": 1, "spectral_tests.lz_complete_test": 1}
    # one full-sample estimate per gsc-g block, CLI call and gsc-u block, and per ms row
    assert calls["estimators.estimate_G"] == 23
