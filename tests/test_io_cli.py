import json

import numpy as np
import pytest

from isotropy import (
    GridSpec,
    KernelSpec,
    Rect,
    RngStream,
    SpatialDataset,
    SymmetryTestResult,
    WindowSpec,
    default_contrast,
    default_lag_set,
    gsc_gridded_test,
    gsc_nongridded_test,
    lz_complete_test,
    ms_test,
    periodogram,
    uniform_locations,
)
from isotropy.cli import main
from isotropy.io import DataFormatError, detect_grid, read_dataset_csv, write_dataset_csv
from isotropy.study import METHOD_TABLE, MethodSpec


class TestCsvRoundTrip:
    def test_grid_detection_2x2(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("x,y,value\n0,0,1\n1,0,2\n0,1,3\n1,1,5\n")
        ds = read_dataset_csv(p)
        assert ds.grid == GridSpec(2, 2, 1.0)

    def test_round_trip_exact(self, tmp_path):
        locs = uniform_locations(120, 16.0, 10.0, RngStream(3))
        vals = RngStream(4).generator().standard_normal(120)
        ds = SpatialDataset(locs, vals)
        p = tmp_path / "d.csv"
        write_dataset_csv(ds, p)
        back = read_dataset_csv(p)
        assert np.max(np.abs(back.locations - ds.locations)) <= 1e-12
        assert np.max(np.abs(back.values - ds.values)) <= 1e-12
        assert back.grid is None

    def test_grid_round_trip(self, tmp_path):
        g = GridSpec(7, 5, 0.5)
        ds = SpatialDataset(g.locations(), np.arange(35.0), grid=g)
        p = tmp_path / "g.csv"
        write_dataset_csv(ds, p)
        assert read_dataset_csv(p).grid == g

    def test_uniform_data_has_no_grid(self, tmp_path):
        locs = uniform_locations(300, 16.0, 10.0, RngStream(5))
        ds = SpatialDataset(locs, np.zeros(300))
        p = tmp_path / "u.csv"
        write_dataset_csv(ds, p)
        assert read_dataset_csv(p).grid is None

    def test_duplicate_names_line(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("x,y,value\n0,0,1\n1,0,2\n0,0,3\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_dataset_csv(p)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y,value\n0,0,1\n1,oops,2\n")
        with pytest.raises(DataFormatError, match="bad.csv:3"):
            read_dataset_csv(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("lon,lat,z\n0,0,1\n")
        with pytest.raises(DataFormatError, match="header"):
            read_dataset_csv(p)

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "few.csv"
        p.write_text("x,y,value\n0,0,1\n")
        with pytest.raises(DataFormatError, match="at least 2"):
            read_dataset_csv(p)

    def test_small_dataset_warns(self, tmp_path):
        p = tmp_path / "small.csv"
        rows = "\n".join(f"{i},0,{i}" for i in range(5))
        p.write_text("x,y,value\n" + rows + "\n")
        with pytest.warns(RuntimeWarning, match="unreliable"):
            read_dataset_csv(p)

    def test_detect_grid_rejects_incomplete(self):
        g = GridSpec(4, 4)
        locs = g.locations()[:-1]
        assert detect_grid(locs) is None


class TestCli:
    def test_simulate_then_test_gridded(self, tmp_path, capsys):
        data = tmp_path / "f.csv"
        assert main(["simulate", "--design", "grid:18x12", "--xi", "6",
                     "--seed", "3", "--out", str(data)]) == 0
        out = tmp_path / "res.json"
        code = main(["test", str(data), "--method", "gsc-g", "--window", "3x2",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["df"] == 2
        assert 0 <= payload["p_value"] <= 1
        assert payload["diagnostics"]["n_windows"] == 176

    def test_lz_requires_grid_exit_2(self, tmp_path, capsys):
        data = tmp_path / "u.csv"
        main(["simulate", "--design", "uniform:200:8x6", "--seed", "1",
              "--out", str(data)])
        assert main(["test", str(data), "--method", "lz"]) == 2
        assert "gridded" in capsys.readouterr().err

    def test_small_n_warns_but_runs(self, tmp_path, capsys):
        data = tmp_path / "f.csv"
        main(["simulate", "--design", "grid:12x8", "--seed", "3", "--out", str(data)])
        code = main(["test", str(data), "--method", "gsc-g", "--window", "3x2"])
        assert code == 0
        assert "below the recommended minimum" in capsys.readouterr().err

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["test", "nonexistent.csv", "--method", "bogus"])
        assert exc.value.code == 1

    def test_missing_file_exit_2(self):
        assert main(["test", "definitely-not-here.csv", "--method", "gsc-g"]) == 2

    def test_bad_design_exit_1(self):
        assert main(["simulate", "--design", "hex:7"]) == 1

    def test_ms_with_domain_flag(self, tmp_path):
        data = tmp_path / "u.csv"
        main(["simulate", "--design", "uniform:300:16x10", "--xi", "6",
              "--seed", "5", "--out", str(data)])
        code = main(["test", str(data), "--method", "ms", "--window", "4x2",
                     "--domain", "0:0:16x10", "--n-boot", "30"])
        assert code == 0

    def test_diagnose_contours(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["diagnose", "contours", "--ratio", "2", "--xi", "6",
                     "--levels", "0.5,0.9", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "level,x,y"
        assert len(lines) == 1 + 2 * 360

    def test_diagnose_directional(self, tmp_path):
        data = tmp_path / "f.csv"
        main(["simulate", "--design", "grid:12x10", "--seed", "2", "--out", str(data)])
        out = tmp_path / "d.csv"
        code = main(["diagnose", "directional", "--data", str(data),
                     "--directions", "4", "--bins", "6", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "direction_deg,distance,gamma,n_pairs"
        assert len(lines) == 1 + 4 * 6

    def test_study_preset_with_report(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code = main(["study", "--preset", "gvl-a", "--replicates", "3",
                     "--threads", "1", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("method,ratio,angle,effective_range")
        # 2 methods x 5 anisotropies x 3 ranges
        assert len(text.strip().splitlines()) == 1 + 30

    def test_study_config_file(self, tmp_path):
        from isotropy.study import gvm_a

        cfg = tmp_path / "cfg.json"
        cfg.write_text(gvm_a(replicates=2).to_json())
        assert main(["study", "--config", str(cfg), "--threads", "1"]) == 0

    def test_study_invalid_config_exit_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"design": {"kind": "grid", "n_cols": 6, "n_rows": 5}}')
        assert main(["study", "--config", str(cfg)]) == 1

    def test_study_needs_preset_or_config(self):
        assert main(["study"]) == 1

    def test_lz_out_writes_json_boolean(self, tmp_path):
        data = tmp_path / "f.csv"
        assert main(["simulate", "--design", "grid:18x12", "--xi", "6",
                     "--seed", "1", "--out", str(data)]) == 0
        sym = lz_complete_test(periodogram(read_dataset_csv(data)))
        # stage 2 decides, and its p-value is not the clamped floor
        assert sym.stage2_reached and sym.stage2_pvalue > 1e-6
        out = tmp_path / "lz.json"
        assert main(["test", str(data), "--method", "lz", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert list(payload) == ["method", "alpha", "stage1_statistic", "stage1_pvalue",
                                 "stage2_statistic", "stage2_pvalue", "reject",
                                 "diagnostics"]
        assert payload["reject"] is sym.reject

    def test_degenerate_periodogram_exit_3(self, tmp_path, capsys):
        data = tmp_path / "flat.csv"
        rows = "\n".join(f"{x},{y},1.0" for y in range(12) for x in range(18))
        data.write_text("x,y,value\n" + rows + "\n")
        assert main(["test", str(data), "--method", "lz"]) == 3
        assert "numerical failure" in capsys.readouterr().err


@pytest.fixture(scope="module")
def agreement_csvs(tmp_path_factory):
    d = tmp_path_factory.mktemp("agreement")
    paths = {"grid": d / "grid.csv", "uniform": d / "uniform.csv"}
    assert main(["simulate", "--design", "grid:18x12", "--ratio", "2", "--xi", "6",
                 "--seed", "11", "--out", str(paths["grid"])]) == 0
    assert main(["simulate", "--design", "uniform:300:16x10", "--ratio", "2", "--xi", "6",
                 "--seed", "12", "--out", str(paths["uniform"])]) == 0
    return paths


# method -> (design, CLI flags, the MethodSpec those flags build, the
# direct library call with the same arguments)
AGREEMENT_CASES = {
    "gsc-g": ("grid", [], MethodSpec("gsc-g"),
              lambda ds, lags, a, dom: gsc_gridded_test(
                  ds, lags, a, pvalue_mode="finite_sample", domain=dom)),
    "gsc-u": ("uniform", ["--window", "4x2"], MethodSpec("gsc-u", window=(4.0, 2.0)),
              lambda ds, lags, a, dom: gsc_nongridded_test(
                  ds, lags, a, KernelSpec("truncated_gaussian", 1.5), 0.75,
                  WindowSpec(4.0, 2.0), domain=dom)),
    "ms": ("uniform", ["--n-boot", "30", "--seed", "4"], MethodSpec("ms", n_boot=30),
           lambda ds, lags, a, dom: ms_test(ds, lags, a, None, 30, 1.0, RngStream(4),
                                            domain=dom)),
    "lz": ("grid", [], MethodSpec("lz"),
           lambda ds, lags, a, dom: lz_complete_test(periodogram(ds), 0.05)),
}


def _decision(result):
    """Statistics, p-values, df and decision at 0.05 of a library result."""
    if isinstance(result, SymmetryTestResult):
        return {"stage1_statistic": result.stage1_statistic,
                "stage1_pvalue": result.stage1_pvalue,
                "stage2_statistic": result.stage2_statistic,
                "stage2_pvalue": result.stage2_pvalue, "reject": result.reject}
    return {"statistic": result.statistic, "p_value": result.p_value, "df": result.df,
            "reject": result.p_value <= 0.05}


@pytest.mark.parametrize("method", list(AGREEMENT_CASES))
def test_cli_study_and_library_agree(method, agreement_csvs, tmp_path):
    design, flags, spec, library_call = AGREEMENT_CASES[method]
    data = agreement_csvs[design]
    out = tmp_path / "res.json"
    assert main(["test", str(data), "--method", method, "--out", str(out)] + flags) == 0
    payload = json.loads(out.read_text())

    ds = read_dataset_csv(data)
    lags = default_lag_set()
    domain = Rect.from_dataset(ds)
    direct = library_call(ds, lags, default_contrast(lags), domain)
    expected = _decision(direct)
    if method == "lz":
        got = {k: payload[k] for k in expected}
    else:
        got = {"statistic": payload["statistic"], "p_value": payload["p_value"],
               "df": payload["df"], "reject": payload["p_value"] <= payload["alpha"]}
    assert got == expected
    assert json.loads(json.dumps(direct.to_dict())) == direct.to_dict()

    entry = METHOD_TABLE[method]
    ran = entry.run(spec, entry.hypothesis(spec), ds, domain, 0.05, RngStream(4))
    assert ran.rejects(0.05) == expected["reject"]
