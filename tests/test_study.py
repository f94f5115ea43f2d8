import dataclasses
import inspect
import json
import re

import numpy as np
import pytest

from isotropy import GridSpec, KernelSpec, Rect, RngStream, SpatialDataset, study
from isotropy.resampling import WindowSpec
from isotropy.study import (
    PRESETS,
    GridDesign,
    MethodSpec,
    StudyConfig,
    StudyError,
    UniformDesign,
    design_from_dict,
    get_preset,
    gvl_a,
    gvm_a,
    run_power_study,
)
from isotropy.spatial_tests import gsc_gridded_test, gsc_nongridded_test, ms_test

from conftest import study_threads


class TestConfigValidation:
    def test_zero_replicates(self):
        with pytest.raises(StudyError, match="replicates"):
            gvl_a(replicates=0)

    def test_grid_method_on_uniform_design(self):
        with pytest.raises(StudyError, match="grid"):
            StudyConfig(
                design=UniformDesign(50, 8.0, 6.0),
                methods=(MethodSpec("gsc-g"),),
                replicates=2,
            )

    def test_unknown_method(self):
        with pytest.raises(StudyError, match="unknown method"):
            MethodSpec("kriging")

    def test_unknown_design(self):
        with pytest.raises(StudyError, match="design"):
            design_from_dict({"kind": "hex"})

    @pytest.mark.parametrize("kwargs, message", [
        ({"method": "gsc-g", "offset_step": 1.0}, "offset step needs a window"),
        ({"method": "ms", "pvalue_mode": "finite_sample"}, "no p-value mode"),
        ({"method": "lz", "pvalue_mode": "asymptotic"}, "no p-value mode"),
    ])
    def test_ignored_options_rejected(self, kwargs, message):
        with pytest.raises(StudyError, match=message):
            MethodSpec(**kwargs)

    # a value other than the default for every setting a method does not read;
    # the last one named is refused
    @pytest.mark.parametrize("method, kwargs", [
        ("gsc-g", {"kernel": "epanechnikov"}),
        ("gsc-g", {"truncation": 2.0}),
        ("gsc-g", {"bandwidth": 0.3}),
        ("gsc-g", {"n_boot": 7}),
        ("gsc-g", {"tuning": 3.0}),
        ("gsc-u", {"n_boot": 7}),
        ("gsc-u", {"tuning": 3.0}),
        ("ms", {"window": (4.0, 3.0), "offset_step": 1.0}),
        ("ms", {"kernel": "epanechnikov"}),
        ("ms", {"truncation": 2.0}),
        ("ms", {"bandwidth": 0.3}),
        ("lz", {"lag_scale": 2.0}),
        ("lz", {"extra_lag_pair": True}),
        ("lz", {"window": (4.0, 3.0)}),
        ("lz", {"offset_step": 1.0}),
        ("lz", {"kernel": "epanechnikov"}),
        ("lz", {"truncation": 2.0}),
        ("lz", {"bandwidth": 0.3}),
        ("lz", {"n_boot": 7}),
        ("lz", {"tuning": 3.0}),
    ])
    def test_unread_settings_rejected(self, method, kwargs):
        noun = list(kwargs)[-1].replace("_", " ")
        with pytest.raises(StudyError, match=noun):
            MethodSpec(method, **kwargs)
        with pytest.raises(StudyError, match=noun):
            StudyConfig.from_json(json.dumps({
                "design": {"kind": "grid", "n_cols": 18, "n_rows": 12}, "replicates": 2,
                "methods": [{"method": method, **kwargs}]}))

    # a valid value other than the default for every setting a test reads
    READ_VALUES = {"lag_scale": 2.0, "extra_lag_pair": True, "window": (4.0, 3.0),
                   "offset_step": 1.0, "kernel": "epanechnikov", "truncation": 2.0,
                   "bandwidth": 0.3, "pvalue_mode": "asymptotic", "n_boot": 7,
                   "tuning": 3.0}

    @pytest.mark.parametrize("method", list(study.METHOD_TABLE))
    def test_read_settings_accepted(self, method):
        reads = [s for s in study.METHOD_TABLE[method].reads if s in self.READ_VALUES]
        for setting in reads:
            extra = {"window": (4.0, 3.0)} if setting == "offset_step" else {}
            spec = MethodSpec(method, **extra, **{setting: self.READ_VALUES[setting]})
            assert getattr(spec, setting) == self.READ_VALUES[setting]
        # with the label, MethodSpec accepts 22 settings over the four methods
        assert len(reads) + 1 == {"gsc-g": 6, "gsc-u": 9, "ms": 6, "lz": 1}[method]

    def test_spec_defaults_are_the_library_defaults(self, random_field_18x12):
        # the CLI and studies build a MethodSpec; library callers get the
        # signature defaults of the tests
        def default(test, name):
            return inspect.signature(test).parameters[name].default

        spec = MethodSpec("gsc-u")
        assert default(gsc_nongridded_test, "kernel") == KernelSpec(spec.kernel, spec.truncation)
        assert default(gsc_nongridded_test, "bandwidth") == spec.bandwidth == 0.75
        assert default(gsc_nongridded_test, "pvalue_mode") == spec.pvalue_mode
        assert (default(ms_test, "n_boot"), default(ms_test, "tuning")) == (
            MethodSpec("ms").n_boot, MethodSpec("ms").tuning) == (100, 1.0)
        spec, entry = MethodSpec("gsc-g"), study.METHOD_TABLE["gsc-g"]
        ds = random_field_18x12
        (ran,) = entry.run(spec, ds, ds.values[None], Rect.from_dataset(ds), 0.05,
                           [RngStream(0)])
        # both leave the mode to gsc_gridded_test, whose default is set there alone
        assert default(gsc_gridded_test, "pvalue_mode") is spec.pvalue_mode is None
        assert ran.pvalue_mode == gsc_gridded_test(ds).pvalue_mode == "finite_sample"

    @pytest.mark.parametrize("kwargs, message", [
        ({"method": "gsc-g", "pvalue_mode": "foo"}, "unknown p-value mode"),
        ({"method": "ms", "n_boot": 1}, "two bootstrap resamples"),
        ({"method": "gsc-u", "bandwidth": 0}, "positive bandwidth"),
        ({"method": "ms", "tuning": -1}, "tuning must be positive"),
        ({"method": "gsc-u", "kernel": "box"}, "unknown kernel family"),
        ({"method": "gsc-u", "truncation": 0}, "truncation must be positive"),
        ({"method": "gsc-g", "window": (0, 3)}, "window dimensions must be positive"),
        ({"method": "gsc-g", "window": 5}, "window must be a list, not 5"),
        ({"method": "gsc-u", "lag_scale": 0}, "scale must be positive"),
        ({"method": "gsc-g", "window": (4, 3), "offset_step": -1}, "offset step must be positive"),
        # the input spelling of a result's label
        ({"method": "gsc-g", "pvalue_mode": "asymptotic_chi2"}, "unknown p-value mode"),
        # a truncation the kernel never reads
        ({"method": "gsc-u", "kernel": "epanechnikov", "truncation": 3.0}, "no truncation"),
    ])
    def test_bad_values_rejected_at_construction(self, kwargs, message):
        # each of these used to fail only inside the first replicate
        with pytest.raises(StudyError, match=message):
            MethodSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"method": "ms", "tuning": float("inf")}, "tuning must be positive and finite"),
        ({"method": "gsc-u", "bandwidth": float("inf")}, "finite positive bandwidth"),
        ({"method": "gsc-u", "bandwidth": float("nan")}, "finite positive bandwidth"),
        ({"method": "gsc-u", "lag_scale": float("inf")}, "scale must be positive and finite"),
        ({"method": "gsc-u", "window": (4, 2), "offset_step": float("inf")},
         "offset step must be positive and finite"),
        ({"method": "gsc-u", "truncation": float("inf")}, "truncation must be positive and finite"),
        ({"method": "gsc-g", "window": (float("inf"), 3)}, "window dimensions must be positive"),
    ])
    def test_non_finite_values_rejected(self, kwargs, message):
        # each of these once ran: to a traceback, a numerical failure, or a
        # reach that made every pair a candidate
        with pytest.raises(StudyError, match=message):
            MethodSpec(**kwargs)

    # a config edit per key; each once ran, guessing a value, or ended in a traceback
    WRONG_VALUES = {
        "n_boot": lambda d: d["methods"].append({"method": "ms", "n_boot": 10.0}),
        "extra_lag_pair": lambda d: d["methods"].append(
            {"method": "gsc-u", "extra_lag_pair": "false"}),
        "window": lambda d: d["methods"].append({"method": "gsc-g", "window": [4.0, 2.0, 9.0]}),
        "replicates": lambda d: d.update(replicates=2.9),
        "n_cols": lambda d: d["design"].update(n_cols=18.9),
        "master_seed": lambda d: d.update(master_seed=7.5),
        "ratio": lambda d: d.update(anisotropies=[[1.0, 0.0], [float("inf"), 0.0]]),
        "tau2": lambda d: d.update(tau2=float("nan")),
        # a string once loaded as the number it spells
        "alpha": lambda d: d.update(alpha="0.05"),
        "sigma2": lambda d: d.update(sigma2="2"),
        "effective_ranges": lambda d: d.update(effective_ranges=["3"]),
        "anisotropies": lambda d: d.update(anisotropies=[["1", "0"]]),
        "spacing": lambda d: d["design"].update(spacing="2"),
        # a string setting once failed naming no key
        "lag_scale": lambda d: d["methods"].append({"method": "gsc-g", "lag_scale": "2"}),
        # an infinite domain once loaded; NaN was refused naming no key
        "width": lambda d: d.update(methods=[{"method": "gsc-u"}], design={
            "kind": "uniform", "n": 300, "width": float("inf"), "height": 10.0}),
        "height": lambda d: d.update(methods=[{"method": "gsc-u"}], design={
            "kind": "uniform", "n": 300, "width": 16.0, "height": float("nan")}),
        # an empty list once loaded, and the study ended in a traceback
        "effective_ranges list": lambda d: d.update(effective_ranges=[]),
        "anisotropies list": lambda d: d.update(anisotropies=[]),
        # a pair of the wrong length once failed naming no key
        "anisotropies pair": lambda d: d.update(anisotropies=[[1.0]]),
    }

    @pytest.mark.parametrize("key", list(WRONG_VALUES))
    def test_wrong_types_and_non_finite_values_rejected(self, key):
        d = {"design": {"kind": "grid", "n_cols": 18, "n_rows": 12}, "replicates": 2,
             "methods": [{"method": "lz"}]}
        StudyConfig.from_json(json.dumps(d))
        self.WRONG_VALUES[key](d)
        with pytest.raises(StudyError, match=f"{key} must be"):
            StudyConfig.from_json(json.dumps(d))

    # a config built in Python is checked as a config file is; each of these
    # once passed its constructor, or failed later naming no key
    @pytest.mark.parametrize("target, key, value", [
        pytest.param(target, key, value, id=f"{key}={value!r}") for target, key, value in [
            ("config", "master_seed", 7.5),
            ("config", "master_seed", "7"),
            ("config", "sigma2", True),
            ("grid", "spacing", True),
            ("grid", "spacing", "2"),
            ("config", "alpha", "0.05"),
            ("config", "effective_ranges", ("3",)),
            ("config", "effective_ranges", ()),
            ("config", "anisotropies", ((2.0, "0"),)),
            ("config", "anisotropies", ()),
            ("config", "anisotropies", ((1.0, 0.0, 3.0),)),
            ("config", "anisotropies", ((1.0,),)),
            ("uniform", "width", float("inf")),  # refused before, by the constructor alone
            ("uniform", "height", True),
        ]])
    def test_constructors_refuse_what_the_loader_refuses(self, target, key, value):
        valid = {"config": gvl_a(replicates=2), "grid": GridDesign(18, 12),
                 "uniform": UniformDesign(300, 16.0, 10.0)}[target]
        with pytest.raises(StudyError, match=key):
            dataclasses.replace(valid, **{key: value})

    def test_constructors_convert_what_the_loader_converted(self):
        # ints and lists, as a config file may give them, are stored as floats
        # and tuples, so a config equals the one loaded from its echo
        config = StudyConfig(GridDesign(6, 5, 2), (MethodSpec("lz", label="x"),),
                             effective_ranges=[3, 6], anisotropies=[[2, 0]], sigma2=2,
                             tau2=0, replicates=2, alpha=1 / 8)
        assert config.design.spacing == 2.0 and type(config.design.spacing) is float
        assert config.effective_ranges == (3.0, 6.0) and config.anisotropies == ((2.0, 0.0),)
        assert all(type(v) is float for v in (*config.effective_ranges, *config.anisotropies[0],
                                              config.sigma2, config.tau2))
        assert StudyConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize("label", ["a,b", 'a"b', "a\nb", "a\rb"])
    def test_labels_that_would_break_the_report_refused(self, label):
        # "a,b" once wrote an 11-field row under the 10-field CSV header
        message = re.escape(f"label {label!r} holds a comma, double quote or line break")
        with pytest.raises(StudyError, match=message):
            MethodSpec("lz", label=label)
        d = {"design": {"kind": "grid", "n_cols": 18, "n_rows": 12}, "replicates": 2,
             "methods": [{"method": "lz", "label": label}]}
        with pytest.raises(StudyError, match=message):
            StudyConfig.from_json(json.dumps(d))

    def test_bad_alpha(self):
        with pytest.raises(StudyError, match="alpha"):
            StudyConfig(design=GridDesign(6, 5),
                        methods=(MethodSpec("lz"),), replicates=2, alpha=2.0)

    def test_json_round_trip(self):
        for name in PRESETS:
            cfg = get_preset(name, replicates=7)
            assert StudyConfig.from_json(cfg.to_json()) == cfg

    def test_from_json_rejects_garbage(self):
        with pytest.raises(StudyError, match="JSON"):
            StudyConfig.from_json("{not json")
        with pytest.raises(StudyError, match="missing"):
            StudyConfig.from_json("{}")

    @pytest.mark.parametrize("where, key", [
        ("config", "alpah"), ("grid design", "spacng"), ("uniform design", "hieght")])
    def test_unknown_keys_refused(self, where, key):
        # a misspelt key used to be ignored, leaving its setting at the default
        d = json.loads((gvm_a if where == "uniform design" else gvl_a)(replicates=2).to_json())
        target = d if where == "config" else d["design"]
        target[key] = 0.2
        with pytest.raises(StudyError, match=f"unknown {where} key '{key}'"):
            StudyConfig.from_json(json.dumps(d))

    def test_duplicate_labels_refused(self):
        # both CSV rows once held the counts of the method listed last
        methods = (MethodSpec("gsc-g", label="x"), MethodSpec("lz", label="x"))
        with pytest.raises(StudyError, match="two methods are labelled 'x'"):
            StudyConfig(design=GridDesign(18, 12), methods=methods, replicates=2)
        d = {"design": {"kind": "grid", "n_cols": 18, "n_rows": 12}, "replicates": 2,
             "methods": [{"method": "gsc-g"}, {"method": "gsc-g", "pvalue_mode": "asymptotic"}]}
        with pytest.raises(StudyError, match="two methods are labelled 'gsc-g'"):
            StudyConfig.from_json(json.dumps(d))

    def test_config_must_be_an_object(self):
        with pytest.raises(StudyError, match="JSON object"):
            StudyConfig.from_json("[1]")

    def test_all_presets_construct(self):
        for name in PRESETS:
            cfg = get_preset(name, replicates=2)
            assert cfg.replicates == 2

    def test_unknown_preset(self):
        with pytest.raises(StudyError, match="unknown preset"):
            get_preset("nope")


@pytest.fixture(scope="module")
def small_report():
    return run_power_study(gvl_a(replicates=5), threads=1)


class TestRunStudy:
    def test_shape_and_rates(self, small_report):
        assert len(small_report.results) == 2 * 5 * 3
        for r in small_report.results:
            assert 0 <= r.rate <= 1
            assert r.replicates == 5
            assert r.n_failed == 0

    def test_rate_lookup(self, small_report):
        v = small_report.rate("gsc-g", 2.0, 0.0, 6.0)
        assert 0 <= v <= 1
        with pytest.raises(KeyError):
            small_report.rate("gsc-g", 9.0, 0.0, 6.0)

    def test_methods_share_realizations(self, small_report):
        # both methods carry the same per-cell field hash
        by_cell = {}
        for r in small_report.results:
            key = (r.ratio, r.angle, r.effective_range)
            by_cell.setdefault(key, set()).add(r.field_hash)
        assert all(len(hashes) == 1 for hashes in by_cell.values())
        assert len({h for s in by_cell.values() for h in s}) == 15

    def test_reproducible_and_thread_invariant(self):
        cfg = gvm_a(replicates=4)
        a = run_power_study(cfg, threads=1)
        b = run_power_study(cfg, threads=study_threads())
        assert a.to_csv() == b.to_csv()

    def test_seed_changes_report(self):
        a = run_power_study(gvl_a(replicates=4, master_seed=1), threads=1)
        b = run_power_study(gvl_a(replicates=4, master_seed=2), threads=1)
        assert a.to_csv() != b.to_csv()

    def test_table_renders(self, small_report):
        text = small_report.table()
        assert "gsc-g" in text and "lz" in text
        assert "mean seconds per test" in text

    def test_csv_excludes_timing(self, small_report):
        header = small_report.to_csv().splitlines()[0]
        assert "seconds" not in header
        assert "field_hash" in header


class TestFailureHandling:
    @staticmethod
    def _config():
        return StudyConfig(design=GridDesign(18, 12),
                           methods=(MethodSpec("lz"), MethodSpec("gsc-g", window=(4.0, 3.0))),
                           effective_ranges=(6.0,), anisotropies=((1.0, 0.0),),
                           replicates=20)

    def test_bug_in_a_test_propagates(self, monkeypatch):
        def broken(pgram, alpha):
            raise TypeError("bug in the test")

        monkeypatch.setattr(study, "lz_complete_test", broken)
        with pytest.raises(TypeError, match="bug in the test"):
            run_power_study(self._config(), threads=1)

    def test_numerical_failure_is_counted(self, monkeypatch):
        # the fourth field of the block is constant: lz meets zero periodogram
        # ordinates, gsc-g a zero (singular) contrast covariance
        from isotropy.spectral_tests import DegeneratePeriodogramError
        from isotropy.grf import GrfSampler
        from isotropy.spatial_tests import SingularityError

        draws = []
        real = GrfSampler.draw_values

        def constant_fourth(sampler, rng):
            values = real(sampler, rng)
            draws.append(np.full(values.shape, 1.5) if len(draws) == 3 else values)
            return draws[-1]

        monkeypatch.setattr(GrfSampler, "draw_values", constant_fourth)
        config = self._config()
        report = run_power_study(config, threads=1)
        assert [cell.n_failed for cell in report.results] == [1, 1]
        for cell in report.results:  # a failed replicate counts as a non-rejection
            assert cell.rate == cell.n_reject / 20

        # the block's other rows are bitwise their one-row outcomes
        grid = GridSpec(18, 12)
        values = np.stack(draws[:6])
        dataset = SpatialDataset(grid.locations(), values[0], grid=grid)
        domain = Rect(0.0, 0.0, 18.0, 12.0)
        for m, error in zip(config.methods, (DegeneratePeriodogramError, SingularityError)):
            method = study.METHOD_TABLE[m.method]
            outcomes = method.run(m, dataset, values, domain, 0.05, [RngStream(0)] * 6)
            assert isinstance(outcomes[3], error)
            for r in (0, 1, 2, 4, 5):
                (alone,) = method.run(m, dataset, values[r:r + 1], domain, 0.05, [RngStream(0)])
                assert outcomes[r].to_dict() == alone.to_dict()

    def test_ms_resampling_failure_is_counted(self, monkeypatch):
        # the fourth bootstrap fails: ms fails that replicate alone
        from isotropy import spatial_tests
        from isotropy.grf import GrfSampler
        from isotropy.resampling import ResamplingError

        draws, calls = [], []
        real_draw, real_variance = GrfSampler.draw_values, spatial_tests.gbbb_variance

        def recording(sampler, rng):
            draws.append((sampler.locations, real_draw(sampler, rng)))
            return draws[-1][1]

        def fourth_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 4:
                raise ResamplingError("the fourth bootstrap failed")
            return real_variance(*args, **kwargs)

        monkeypatch.setattr(GrfSampler, "draw_values", recording)
        monkeypatch.setattr(spatial_tests, "gbbb_variance", fourth_fails)
        m = MethodSpec("ms", window=(4.0, 2.0), n_boot=30)
        config = StudyConfig(design=UniformDesign(300, 16.0, 10.0), methods=(m,),
                             effective_ranges=(6.0,), anisotropies=((1.0, 0.0),), replicates=20)
        (cell,) = run_power_study(config, threads=1).results
        assert cell.n_failed == 1

        calls.clear()
        values = np.stack([v for _, v in draws[:6]])
        dataset = SpatialDataset(draws[0][0], values[0])
        rngs = [RngStream(0, r) for r in range(6)]
        domain, method = Rect(0.0, 0.0, 16.0, 10.0), study.METHOD_TABLE["ms"]
        outcomes = method.run(m, dataset, values, domain, 0.05, rngs)
        assert isinstance(outcomes[3], ResamplingError)
        monkeypatch.setattr(spatial_tests, "gbbb_variance", real_variance)
        for r in (0, 1, 2, 4, 5):
            (alone,) = method.run(m, dataset, values[r:r + 1], domain, 0.05, [rngs[r]])
            assert outcomes[r].to_dict() == alone.to_dict()


def _mixed_block(locations, grid, seed, rows=20):
    """``rows`` fields on one location set, isotropic and anisotropic in turn:
    a dataset on the locations and the fields' ``(rows, n)`` values."""
    from isotropy import AnisotropyParams, ExponentialCovariance, GrfSampler

    values = []
    for r in range(rows):
        ratio, xi = [(1.0, 3.0), (2.0, 6.0), (4.0, 12.0), (1.4142135623730951, 6.0)][r % 4]
        aniso = None if ratio == 1.0 else AnisotropyParams(ratio, 0.3 * r)
        sampler = GrfSampler(locations, ExponentialCovariance.from_effective_range(xi), aniso)
        values.append(sampler.draw_values(RngStream(seed, r)))
    return SpatialDataset(locations, values[0], grid=grid), np.stack(values)


class TestBlockRows:
    """A block's outcomes are, row by row, the one-dataset test calls' on a
    new dataset of that row's values."""

    @staticmethod
    def _check(dataset, values, run_block, run_one, size):
        """``run_block(rows, lo)`` on slices ``values[lo:lo + size]`` against
        ``run_one(ds, r)`` on a new dataset of row r."""
        want = [run_one(SpatialDataset(dataset.locations, row, grid=dataset.grid), r).to_dict()
                for r, row in enumerate(values)]
        got = [o.to_dict() for lo in range(0, len(values), size)
               for o in run_block(values[lo:lo + size], lo)]
        assert got == want
        return want

    @pytest.mark.parametrize("size", [1, 3, 20])
    @pytest.mark.parametrize("cols, rows, window", [(18, 12, (4.0, 3.0)), (25, 15, (5.0, 3.0))])
    def test_gsc_g(self, cols, rows, window, size):
        grid = GridSpec(cols, rows)
        dataset, values = _mixed_block(grid.locations(), grid, cols)
        kw = {"window": WindowSpec(*window), "domain": Rect(0.0, 0.0, cols, rows)}
        self._check(dataset, values, lambda v, lo: gsc_gridded_test(dataset, values=v, **kw),
                    lambda ds, r: gsc_gridded_test(ds, **kw), size)

    @pytest.mark.parametrize("size", [1, 3, 20])
    @pytest.mark.parametrize("pvalue_mode", ["finite_sample", "asymptotic"])
    def test_gsc_u(self, pvalue_mode, size):
        from isotropy import uniform_locations

        design = gvm_a().design
        dataset, values = _mixed_block(uniform_locations(design.n, design.width, design.height,
                                                         RngStream(5)), None, 7)
        kw = {"window": WindowSpec(4.0, 2.0), "pvalue_mode": pvalue_mode,
              "domain": Rect(0.0, 0.0, design.width, design.height)}
        self._check(dataset, values, lambda v, lo: gsc_nongridded_test(dataset, values=v, **kw),
                    lambda ds, r: gsc_nongridded_test(ds, **kw), size)

    @pytest.mark.parametrize("size", [1, 3, 20])
    def test_ms(self, size):
        from isotropy import uniform_locations

        design = gvm_a().design
        dataset, values = _mixed_block(uniform_locations(design.n, design.width, design.height,
                                                         RngStream(5)), None, 8)
        rngs = [RngStream(9, r) for r in range(len(values))]
        kw = {"block": WindowSpec(4.0, 2.0), "n_boot": 30,
              "domain": Rect(0.0, 0.0, design.width, design.height)}
        self._check(dataset, values,
                    lambda v, lo: ms_test(dataset, rng=rngs[lo:lo + len(v)], values=v, **kw),
                    lambda ds, r: ms_test(ds, rng=rngs[r], **kw), size)

    @pytest.mark.parametrize("size", [1, 3, 20])
    @pytest.mark.parametrize("cols, rows", [(18, 12), (25, 15), (16, 16), (7, 9)])
    def test_lz(self, cols, rows, size):
        from isotropy import lz_complete_test, periodogram

        grid = GridSpec(cols, rows)
        dataset, values = _mixed_block(grid.locations(), grid, 100 + cols)
        want = self._check(dataset, values,
                           lambda v, lo: lz_complete_test(periodogram(dataset, v), 0.05),
                           lambda ds, r: lz_complete_test(periodogram(ds), 0.05), size)
        stage2 = [r["stage2_pvalue"] is not None for r in want]
        assert any(stage2) and not all(stage2)  # rows reject at stage 1 and reach stage 2

    @pytest.mark.parametrize("values, message", [
        (lambda v: v[0], r"not shape \(216,\)"),
        (lambda v: v[:, :, None], r"not shape \(20, 216, 1\)"),
        (lambda v: v[:0], r"not shape \(0, 216\)"),
        (lambda v: v[:, 1:], "216 locations but 215 values"),
        (lambda v: np.where(np.arange(216) == 7, np.nan, v), "values must be finite"),
        (lambda v: np.where(np.arange(216) == 7, -np.inf, v), "values must be finite"),
    ])
    @pytest.mark.parametrize("function", [
        "gsc_gridded_tests", "gsc_nongridded_tests", "ms_tests", "periodogram"])
    def test_refuses_values_not_finite_or_not_r_by_n(self, function, values, message):
        from isotropy import periodogram

        grid = GridSpec(18, 12)
        dataset, good = _mixed_block(grid.locations(), grid, 3)
        run = {"gsc_gridded_tests": lambda v: gsc_gridded_test(dataset, values=v),
               "gsc_nongridded_tests": lambda v: gsc_nongridded_test(dataset, values=v),
               "ms_tests": lambda v: ms_test(dataset, rng=[RngStream(0)] * len(v), values=v),
               "periodogram": lambda v: periodogram(dataset, v)}[function]
        with pytest.raises(ValueError, match=message):
            run(values(good))


class TestLocationWorkOnce:
    """A study block is one dataset and its replicates' ``(R, n)`` values, so
    the work that depends only on the locations is done once per block."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from isotropy import core, estimators, resampling

        seen = {"_candidate_pairs": 0, "_Windows.build": 0, "_check_locations": 0,
                "SpatialDataset": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                seen[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(estimators, "_candidate_pairs",
                            counting("_candidate_pairs", estimators._candidate_pairs))
        monkeypatch.setattr(resampling._Windows, "build", staticmethod(
            counting("_Windows.build", resampling._Windows.build)))
        monkeypatch.setattr(core.SpatialDataset, "_check_locations",
                            counting("_check_locations", core.SpatialDataset._check_locations))
        monkeypatch.setattr(core.SpatialDataset, "__post_init__",
                            counting("SpatialDataset", core.SpatialDataset.__post_init__))
        return seen

    @pytest.mark.parametrize("preset, pair_geometries", [("gvl-a", 1), ("gvm-a", 2)])
    def test_one_block_does_location_work_once(self, counts, preset, pair_geometries):
        # gvl-a: one classical geometry on 18x12 (lz needs none); gvm-a:
        # the gsc-u kernel and the ms kernel at its empirical bandwidth
        config = get_preset(preset, replicates=20)
        digests, _ = study._run_block(config, 4, 0, 20)
        assert len(digests) == 20
        assert counts == {"_candidate_pairs": pair_geometries, "_Windows.build": 1,
                          "_check_locations": 1, "SpatialDataset": 1}

    @pytest.mark.parametrize("design, methods", [
        (GridDesign(18, 12), (MethodSpec("gsc-g", window=(4.0, 3.0)),
                              MethodSpec("gsc-g", pvalue_mode="asymptotic", lag_scale=2),
                              MethodSpec("lz"))),
        (UniformDesign(300, 16.0, 10.0), (MethodSpec("gsc-u", window=(4.0, 2.0)),
                                          MethodSpec("ms", window=(4.0, 2.0), n_boot=30))),
    ])
    def test_shared_memo_gives_the_fresh_dataset_result(self, design, methods):
        # the rows of a block share its dataset's memo
        from isotropy import AnisotropyParams, ExponentialCovariance, GrfSampler

        locations, grid, domain = design.sample(RngStream(5))
        sampler = GrfSampler(locations, ExponentialCovariance.from_effective_range(6.0),
                             AnisotropyParams(2.0, 0.4))
        values = np.stack([sampler.draw_values(RngStream(6, rep)) for rep in range(4)])
        dataset = SpatialDataset(locations, values[0], grid=grid)
        for m in methods:
            method = study.METHOD_TABLE[m.method]
            block = method.run(m, dataset, values, domain, 0.05, [RngStream(7)] * 4)
            for got, row in zip(block, values):
                fresh = SpatialDataset(locations.copy(), row.copy(), grid=grid)
                (want,) = method.run(m, fresh, fresh.values[None], domain, 0.05, [RngStream(7)])
                assert got.to_dict() == want.to_dict()
