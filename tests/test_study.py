import pytest

from isotropy import study
from isotropy.resampling import ResamplingError
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

    def test_bad_alpha(self):
        with pytest.raises(StudyError, match="alpha"):
            StudyConfig(design=GridDesign(6, 5),
                        methods=(MethodSpec("lz"),), replicates=2, alpha=2.0)

    def test_json_round_trip(self):
        cfg = gvm_a(replicates=7)
        assert StudyConfig.from_json(cfg.to_json()) == cfg

    def test_from_json_rejects_garbage(self):
        with pytest.raises(StudyError, match="JSON"):
            StudyConfig.from_json("{not json")
        with pytest.raises(StudyError, match="missing"):
            StudyConfig.from_json("{}")

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
        return StudyConfig(design=GridDesign(18, 12), methods=(MethodSpec("lz"),),
                           effective_ranges=(6.0,), anisotropies=((1.0, 0.0),),
                           replicates=20)

    def test_bug_in_a_test_propagates(self, monkeypatch):
        def broken(pgram, alpha):
            raise TypeError("bug in the test")

        monkeypatch.setattr(study, "lz_complete_test", broken)
        with pytest.raises(TypeError, match="bug in the test"):
            run_power_study(self._config(), threads=1)

    def test_numerical_failure_is_counted(self, monkeypatch):
        calls = []
        real = study.lz_complete_test

        def fails_once(pgram, alpha):
            calls.append(alpha)
            if len(calls) == 1:
                raise ResamplingError("no usable windows")
            return real(pgram, alpha)

        monkeypatch.setattr(study, "lz_complete_test", fails_once)
        (cell,) = run_power_study(self._config(), threads=1).results
        assert len(calls) == 20
        assert cell.n_failed == 1
        # a failed replicate counts as a non-rejection
        assert cell.rate == cell.n_reject / 20
