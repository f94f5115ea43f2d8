import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from isotropy.io import (
    DataFormatError,
    detect_grid,
    format_dataset_csv,
    read_dataset_csv,
    write_dataset_csv,
)
from isotropy.study import METHOD_TABLE, MethodSpec, get_preset


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

    @pytest.mark.parametrize("rows, message", [
        # the first bad row in file order wins, whatever its fault
        ("0,0,1\n1,0,nan\n0,0,2\n", r"bad.csv:3: non-finite entry"),
        ("0,0,1\n\n-0.0,0,2\n1,0,inf\n", r"bad.csv:4: duplicate location \(-0, 0\), "
                                          r"first seen on line 2"),
        ("0,0,1\n1,0\n1,1,x\n", r"bad.csv:3: expected 3 columns, got 2"),
        ("0,0,1\n1,1,x\n1,0\n", r"bad.csv:3: could not convert string to float: 'x'"),
        ("0,0,1\n1,0,2,extra\n , ,\n1,1,3\n2,2,inf\n", r"bad.csv:6: non-finite entry"),
    ])
    def test_first_bad_row_in_file_order(self, tmp_path, rows, message):
        p = tmp_path / "bad.csv"
        p.write_text("x,y,value\n" + rows)
        with pytest.raises(DataFormatError, match=message):
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

    @pytest.mark.parametrize("xs, grid", [
        # within 1e-6 of a 0.001 lattice, but 0.4 spacings off it
        ((0, 0.001, 0.0020004, 0.0030004), None),
        # 2e-6 off a lattice of spacing 3: within 1e-6 spacings
        ((0, 3, 6.000002, 9.000002), GridSpec(4, 4, 3.0)),
    ])
    def test_detection_follows_the_dataset_grid_rule(self, tmp_path, xs, grid):
        spacing = xs[1]
        p = tmp_path / "g.csv"
        rows = [f"{x!r},{k * spacing!r},{x + k}" for k in range(4) for x in xs]
        p.write_text("x,y,value\n" + "\n".join(rows) + "\n")
        assert read_dataset_csv(p).grid == grid

    @pytest.mark.parametrize("header", ["x,y,value", '"x",y,value'],
                             ids=["plain", "quoted"])
    def test_byte_order_mark_is_skipped(self, tmp_path, header):
        # spreadsheets write one; it once made the header unreadable
        g = GridSpec(6, 5)
        ds = SpatialDataset(g.locations(), RngStream(8).generator().standard_normal(30), grid=g)
        text = header + format_dataset_csv(ds).removeprefix("x,y,value")
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        a, b = read_dataset_csv(plain), read_dataset_csv(marked)
        assert a.locations.tobytes() == b.locations.tobytes()
        assert a.values.tobytes() == b.values.tobytes()
        assert a.grid == b.grid == g


def _oracle(path, text):
    """The reader's documented row rules applied one row at a time with
    the csv module and ``float``: the (m, 3) rows, or the DataFormatError
    message."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return f"{path}: empty file"
    if [c.strip().lower() for c in rows[0]][:3] != ["x", "y", "value"]:
        return f"{path}: expected header 'x,y,value', got {','.join(rows[0])!r}"
    seen, data = {}, []
    for lineno, row in enumerate(rows[1:], start=2):
        if not "".join(row).strip():
            continue
        if len(row) < 3:
            return f"{path}:{lineno}: expected 3 columns, got {len(row)}"
        try:
            x, y, v = (float(c) for c in row[:3])
        except ValueError as exc:
            return f"{path}:{lineno}: {exc}"
        if not all(map(math.isfinite, (x, y, v))):
            return f"{path}:{lineno}: non-finite entry"
        if (x, y) in seen:
            return (f"{path}:{lineno}: duplicate location ({x:g}, {y:g}), "
                    f"first seen on line {seen[(x, y)]}")
        seen[(x, y)] = lineno
        data.append((x, y, v))
    if len(data) < 2:
        return f"{path}: need at least 2 observations, got {len(data)}"
    return np.array(data)


_PLAIN_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                           st.integers(-2, 2).map(str))
_NUMBERS = st.one_of(_PLAIN_NUMBERS, st.sampled_from([
    "-0.0", "1_0", "0x10", "nan", "inf", "-Infinity", "Infinity", "1e-400", "1e400", "+.5",
    "5.", "2E1", "\u0663", "\uff11", "#1", "x", ""]))
_HEADERS = st.sampled_from([" X ,y, Value\t", "x,y,value,note", '"x",y,value',
                            "\ufeffx,y,value", "x;y;value", "x,y", ""])
_ODD_ROWS = st.sampled_from(["", "   ", "\t", ",,", " , , ", "\u00a0", "#", "1,2"])


@st.composite
def _csv_texts(draw):
    """CSV texts in the reader's input format and near it: lattices and
    scattered points, written plainly or with odd numbers, padded, quoted
    and extra fields, odd rows, headers and line endings."""
    odd = draw(st.booleans())
    numbers = _NUMBERS if odd else _PLAIN_NUMBERS
    if draw(st.booleans()):
        n_cols, n_rows = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        spacing = draw(st.sampled_from([1.0, 0.5, 3.0, 1e-3]))
        cells = draw(st.permutations([(i, j) for i in range(n_cols) for j in range(n_rows)]))
        xy = [[repr(i * spacing), repr(j * spacing)] for i, j in cells]
    else:
        coords = st.one_of(st.sampled_from(["0", "1", "2", "-0.0", "0.5"]), numbers)
        xy = draw(st.lists(st.lists(coords, min_size=2, max_size=2), max_size=12))
    lines = []
    for x, y in xy:
        fields = [x, y, draw(numbers)]
        if odd and draw(st.integers(0, 3)) == 0:
            k = draw(st.integers(0, 2))
            fields[k] = draw(st.sampled_from(
                ['"{}"', " {} ", "\t{}", "\u00a0{}", "{}\u2003", "{}\x0c"])).format(fields[k])
        if odd and draw(st.integers(0, 3)) == 0:
            fields.append(draw(st.sampled_from(["", "note"])))
        lines.append(",".join(fields))
        if odd and draw(st.integers(0, 4)) == 0:
            lines.append(draw(_ODD_ROWS))
    header = draw(_HEADERS) if odd and draw(st.integers(0, 2)) == 0 else "x,y,value"
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join([header] + lines)
    return text + ending if draw(st.booleans()) else text


class TestReaderRules:
    """The reader gives what the row rules give, whichever way it parses."""

    _names = itertools.count()

    @pytest.fixture(scope="class")
    def csv_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("reader")

    @staticmethod
    def _read(path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = read_dataset_csv(path)
            except DataFormatError as exc:
                result = exc
        return result, [str(w.message) for w in caught]

    @settings(max_examples=400, deadline=None)
    @given(text=_csv_texts())
    @example(text="x,y,value\n")
    @example(text="x,y,value\r\n\r\n")
    @example(text="x,y,value\r0,0,1\r1,0,2\r")
    @example(text="x,y,value\r\n0,0,1\r\n1,0,2\r\n0,1,3\r\n1,1,4\r\n")
    @example(text="x,y,value\n0,0,1\n1,0,2\r0,1,3\n")
    def test_matches_the_row_rules(self, csv_dir, text):
        # a new file each time: rewriting one can be slow on some file systems
        path = csv_dir / f"data-{next(self._names)}.csv"
        path.write_text(text, encoding="utf-8", newline="")
        # the reader's text, as the format defines it: UTF-8 with universal
        # newlines, a leading byte-order mark skipped
        expected = _oracle(path, path.read_text(encoding="utf-8-sig"))
        got, caught = self._read(path)
        if isinstance(expected, str):
            assert isinstance(got, DataFormatError) and str(got) == expected
            assert caught == []
            return
        m = len(expected)
        assert caught == ([f"{path}: only {m} observations; results will be unreliable"]
                          if m < 10 else [])
        # the same numbers written plainly give the same dataset or error
        plain_path = path.with_name("plain-" + path.name)
        plain_path.write_text("x,y,value\n" + "".join(f"{x!r},{y!r},{v!r}\n"
                                                       for x, y, v in expected.tolist()))
        plain, _ = self._read(plain_path)
        if isinstance(plain, Exception):
            assert type(got) is type(plain)
            assert str(got) == str(plain).replace(str(plain_path), str(path))
            return
        for ds in (got, plain):
            assert ds.locations.tobytes() == expected[:, :2].tobytes()
            assert ds.values.tobytes() == expected[:, 2].tobytes()
        assert got.grid == plain.grid


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

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        # a codec error once exited 1 naming no file
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"x,y,value\n0,0,1\n1,0,2\n0,1,\xff\n1,1,4\n")
        assert main(["test", str(bad), "--method", "gsc-u"]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_bad_design_exit_1(self):
        assert main(["simulate", "--design", "hex:7"]) == 1

    def test_non_finite_spacing_exit_1(self, capsys):
        # this once drew on an infinite grid: three numpy warnings, then a data error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--design", "grid:5x5:inf"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spacing must be positive and finite" in captured.err

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

    @pytest.mark.parametrize("max_dist", ["0", "-1", "nan"])
    def test_diagnose_directional_bad_max_dist_exit_1(self, tmp_path, capsys, max_dist):
        data = tmp_path / "f.csv"
        main(["simulate", "--design", "grid:6x5", "--seed", "2", "--out", str(data)])
        capsys.readouterr()
        code = main(["diagnose", "directional", "--data", str(data),
                     f"--max-dist={max_dist}"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_dist must be positive and finite" in captured.err

    # every option of the other diagnose kind is refused; it used to be ignored
    @pytest.mark.parametrize("kind, flag", [
        *(("directional", f) for f in ("--sigma2=2", "--tau2=0.1", "--xi=3", "--phi=0.5",
                                       "--ratio=2", "--angle=1", "--levels=0.5")),
        *(("contours", f) for f in ("--data=f.csv", "--directions=3", "--bins=3",
                                    "--max-dist=2")),
    ])
    def test_diagnose_refuses_the_other_kinds_options(self, tmp_path, capsys, kind, flag):
        data = tmp_path / "f.csv"
        main(["simulate", "--design", "grid:6x5", "--seed", "2", "--out", str(data)])
        args = ["diagnose", kind, "--out", str(tmp_path / "d.csv")]
        args += ["--data", str(data)] if kind == "directional" else []
        assert main(args) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(args + [flag])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate", "--design", "grid:6x5"],
                                         ["diagnose", "contours"]],
                             ids=["simulate", "contours"])
    def test_xi_and_phi_exclusive_exit_1(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--xi", "3", "--phi", "0.5"])
        assert exc.value.code == 1
        assert "not allowed with argument --xi" in capsys.readouterr().err

    # these once wrote a degenerate field or white noise, or were refused
    # under another parameter's name or none
    @pytest.mark.parametrize("command", [["simulate", "--design", "grid:6x5"],
                                         ["diagnose", "contours"]],
                             ids=["simulate", "contours"])
    @pytest.mark.parametrize("flags, name", [
        (["--ratio", "inf"], "ratio"),
        (["--phi", "inf"], "phi"),
        (["--ratio", "nan"], "ratio"),
        (["--angle", "nan", "--ratio", "2"], "angle"),
        (["--sigma2", "inf"], "sigma2"),
        (["--tau2", "nan"], "tau2"),
        (["--xi", "inf"], "xi"),
        (["--phi", "0.5", "--tau2", "inf"], "tau2"),
        # at ratio 1 the angle was never checked
        (["--angle", "nan"], "angle"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_non_finite_field_parameters_exit_1(self, command, flags, name, capsys):
        assert main(command + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f" {name} must be " in captured.err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_study_refuses_threads_below_one(self, threads, capsys):
        # these used to run serially
        code = main(["study", "--preset", "gvl-a", "--replicates", "1", "--threads", threads])
        assert code == 1
        assert "threads must be at least 1" in capsys.readouterr().err

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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(get_preset("gvm-a", replicates=2).to_json())
        assert main(["study", "--config", str(cfg), "--threads", "1"]) == 0

    def test_study_preset_refuses_zero_replicates(self, capsys):
        # a zero count used to run the preset's own count
        assert main(["study", "--preset", "gvl-a", "--replicates", "0"]) == 1
        assert "replicates must be positive" in capsys.readouterr().err

    def test_study_config_refuses_seed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(get_preset("gvl-a", replicates=2).to_json())
        assert main(["study", "--config", str(cfg), "--seed", "99"]) == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("design", ["grid:6x5:0.5", "uniform:40:8x6"])
    def test_simulate_stdout_is_the_out_file(self, design, tmp_path, capsys):
        args = ["simulate", "--design", design, "--xi", "3", "--seed", "9"]
        assert main(args) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "f.csv"
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == printed.encode()

    def test_study_invalid_config_exit_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"design": {"kind": "grid", "n_cols": 6, "n_rows": 5}}')
        assert main(["study", "--config", str(cfg)]) == 1

    def test_study_config_design_not_an_object_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"design": 1, "methods": [{"method": "lz"}], "replicates": 2}')
        assert main(["study", "--config", str(cfg)]) == 1
        assert "design must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["effective_ranges", "anisotropies"])
    def test_study_config_refuses_an_empty_list(self, tmp_path, capsys, key):
        # this once ran no cell and ended in a traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"design": {"kind": "grid", "n_cols": 6, "n_rows": 5},
                                   "methods": [{"method": "lz"}], "replicates": 2, key: []}))
        assert main(["study", "--config", str(cfg)]) == 1
        assert f"error: {key} list must be non-empty" in capsys.readouterr().err

    def test_study_needs_preset_or_config(self):
        assert main(["study"]) == 1

    def test_lz_out_writes_json_boolean(self, tmp_path):
        data = tmp_path / "f.csv"
        assert main(["simulate", "--design", "grid:18x12", "--xi", "6",
                     "--seed", "1", "--out", str(data)]) == 0
        sym = lz_complete_test(periodogram(read_dataset_csv(data)))
        # stage 2 decides, and its p-value is not the clamped floor
        assert sym.stage2_pvalue is not None and sym.stage2_pvalue > 1e-6
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
    (ran,) = entry.run(spec, ds, ds.values[None], domain, 0.05, [RngStream(4)])
    assert ran.rejects(0.05) == expected["reject"]


@pytest.mark.parametrize("method, design, flags", [
    ("gsc-g", "grid", ["--step", "1.0"]),
    ("ms", "uniform", ["--pvalue-mode", "finite_sample"]),
    ("lz", "grid", ["--pvalue-mode", "asymptotic"]),
])
def test_cli_rejects_ignored_options(method, design, flags, agreement_csvs, capsys):
    assert main(["test", str(agreement_csvs[design]), "--method", method] + flags) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("method, design, flags", [
    ("ms", "uniform", ["--bandwidth", "0.3"]),
    ("ms", "uniform", ["--kernel", "epanechnikov"]),
    ("ms", "uniform", ["--window", "4x2", "--step", "1"]),
    ("lz", "grid", ["--window", "4x3"]),
    ("lz", "grid", ["--lag-scale", "2"]),
    ("gsc-g", "grid", ["--n-boot", "7"]),
    ("gsc-u", "uniform", ["--tuning", "3"]),
    ("gsc-g", "grid", ["--seed", "3"]),
    ("gsc-u", "uniform", ["--seed", "3"]),
    ("lz", "grid", ["--seed", "3"]),
    ("lz", "grid", ["--domain", "0:0:17x11"]),
])
def test_cli_rejects_unread_settings(method, design, flags, agreement_csvs, capsys):
    # each of these once ran and printed the result of the call without the flag
    assert main(["test", str(agreement_csvs[design]), "--method", method] + flags) == 1
    assert f"error: method {method} has no " in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1.5", "0", "-1", "nan"])
@pytest.mark.parametrize("method, design", [("gsc-g", "grid"), ("gsc-u", "uniform"),
                                            ("ms", "uniform"), ("lz", "grid")])
def test_cli_refuses_alpha_outside_unit_interval(method, design, alpha, agreement_csvs, capsys):
    # gsc-g, gsc-u and ms once printed a decision at these levels
    assert main(["test", str(agreement_csvs[design]), "--method", method,
                 "--alpha", alpha]) == 1
    assert "error: alpha must be in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("method, flags, message", [
    ("ms", ["--tuning", "inf"], "tuning must be positive and finite"),
    ("gsc-u", ["--bandwidth", "inf"], "a finite positive bandwidth"),
    ("gsc-u", ["--lag-scale", "inf"], "lag scale must be positive and finite"),
    ("gsc-u", ["--window", "4x2", "--step", "inf"], "offset step must be positive and finite"),
    ("gsc-u", ["--truncation", "inf"], "truncation must be positive and finite"),
])
def test_cli_refuses_non_finite_settings(method, flags, message, agreement_csvs, capsys):
    # ms ended in an OverflowError traceback, gsc-u in a numerical failure or
    # a search that took every pair as a candidate
    assert main(["test", str(agreement_csvs["uniform"]), "--method", method] + flags) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("domain", ["nan:0:16x10", "inf:0:16x10", "0:0:infx10"])
@pytest.mark.parametrize("method", ["gsc-u", "ms"])
def test_cli_refuses_non_finite_domain(method, domain, agreement_csvs, capsys):
    # these ended in a numpy traceback, or in a numerical failure (exit 3)
    assert main(["test", str(agreement_csvs["uniform"]), "--method", method,
                 "--window", "4x2", "--domain", domain]) == 1
    assert "needs a finite origin and a positive, finite size" in capsys.readouterr().err


def test_cli_refuses_epanechnikov_truncation(agreement_csvs, capsys):
    # this once printed the statistic of the call without --truncation
    assert main(["test", str(agreement_csvs["uniform"]), "--method", "gsc-u",
                 "--kernel", "epanechnikov", "--truncation", "3"]) == 1
    assert "error: method gsc-u: the epanechnikov kernel has no truncation" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("spacing", ["2", "0.5"])
def test_cli_default_lags_in_grid_spacings(spacing, tmp_path):
    data = tmp_path / "g.csv"
    assert main(["simulate", "--design", f"grid:18x12:{spacing}", "--xi", "6",
                 "--seed", "7", "--out", str(data)]) == 0
    out = tmp_path / "res.json"
    assert main(["test", str(data), "--method", "gsc-g", "--out", str(out)]) == 0
    direct = gsc_gridded_test(read_dataset_csv(data))
    assert json.loads(out.read_text())["statistic"] == direct.statistic


class TestReadCost:
    """What an ``isotropy test`` call searches besides its test: a grid's
    location checks search no pairs, each pair table needs one search
    within reach of its lags, and only ``ms`` asks for every point's
    nearest neighbour."""

    @pytest.fixture
    def searches(self, monkeypatch):
        from isotropy import core, estimators

        seen = {"reach": 0, "duplicates": 0, "nearest": 0}
        pairs_within, neighbour_distances = core.pairs_within, core.neighbour_distances

        def counting_pairs(points, r):
            seen["duplicates" if r == 2 * core.DUPLICATE_TOL else "reach"] += 1
            return pairs_within(points, r)

        def counting_nearest(points):
            seen["nearest"] += 1
            return neighbour_distances(points)

        monkeypatch.setattr(core, "pairs_within", counting_pairs)
        monkeypatch.setattr(estimators, "pairs_within", counting_pairs)
        monkeypatch.setattr(core, "neighbour_distances", counting_nearest)
        return seen

    # duplicate-location searches per call; a grid rules them out
    DUPLICATE_SEARCHES = {"lz": 0, "gsc-g": 0, "gsc-u": 1, "ms": 1}

    @pytest.mark.parametrize("method, reach, nearest", [
        ("lz", 0, 0),
        ("gsc-g", 1, 0),  # its pair table
        ("gsc-u", 1, 0),
        ("ms", 1, 1),  # nearest distances set its bandwidth
    ])
    def test_kd_trees_per_call(self, searches, agreement_csvs, method, reach, nearest):
        # the cell searches of core stand where KD-trees stood
        duplicates = self.DUPLICATE_SEARCHES[method]
        design, flags = AGREEMENT_CASES[method][:2]
        assert main(["test", str(agreement_csvs[design]), "--method", method] + flags) == 0
        assert searches == {"reach": reach, "nearest": nearest, "duplicates": duplicates}

    @pytest.mark.parametrize("header, calls", [("x,y,value", 1), ("x,y,value,id", 0)])
    def test_loadtxt_calls_per_read(self, tmp_path, monkeypatch, header, calls):
        # a header of other than three fields goes straight to the csv rules
        g = GridSpec(5, 4)
        rows = [f"{x:g},{y:g},{v:g}" + (f",{k}" if header.endswith("id") else "")
                for k, ((x, y), v) in enumerate(zip(g.locations(), np.arange(20.0)))]
        path = tmp_path / "f.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        seen = []
        real = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: seen.append(1) or real(*a, **kw))
        ds = read_dataset_csv(path)
        assert len(seen) == calls
        assert ds.grid == g and np.array_equal(ds.values, np.arange(20.0))


class TestStartup:
    """What loading the package costs: numpy alone, scipy never."""

    @staticmethod
    def _run_fresh(code, *args):
        """The JSON of ``seen`` after ``code`` runs in a fresh interpreter;
        ``scipy_modules()`` lists the scipy modules loaded so far."""
        script = (
            "import json, sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "seen = {}\n" + code + "\nprint(json.dumps(seen))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                             text=True, env=env, check=True, timeout=300)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_starts_without_scipy(self, agreement_csvs):
        # no test loads scipy; lz's CvM p-value once loaded scipy.special
        calls = [(m, str(agreement_csvs[AGREEMENT_CASES[m][0]]), AGREEMENT_CASES[m][1])
                 for m in ("gsc-g", "gsc-u", "ms", "lz")]
        seen = self._run_fresh(
            "import isotropy, isotropy.cli, isotropy.study\n"
            "seen['import'] = scipy_modules()\n"
            "for method, path, flags in json.loads(sys.argv[1]):\n"
            "    assert isotropy.cli.main(['test', path, '--method', method] + flags) == 0\n"
            "    seen[method] = scipy_modules()\n",
            json.dumps(calls))
        assert seen == dict.fromkeys(("import", "gsc-g", "gsc-u", "ms", "lz"), [])

    def test_every_command_runs_with_scipy_blocked(self, agreement_csvs, tmp_path):
        # an import of scipy, or of any of its modules, raises ImportError
        commands = [
            ["simulate", "--design", "grid:6x5", "--out", str(tmp_path / "f.csv")],
            *(["test", str(agreement_csvs[design]), "--method", m] + flags
              for m, (design, flags, *_) in AGREEMENT_CASES.items()),
            ["study", "--preset", "gvl-a", "--replicates", "1"],
            ["diagnose", "directional", "--data", str(agreement_csvs["grid"]),
             "--out", str(tmp_path / "d.csv")],
            ["diagnose", "contours", "--ratio", "2", "--out", str(tmp_path / "c.csv")],
        ]
        seen = self._run_fresh(
            "sys.modules['scipy'] = None\n"
            "import isotropy.cli\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    seen[' '.join(args)] = isotropy.cli.main(args)\n",
            json.dumps(commands))
        assert seen == {" ".join(args): 0 for args in commands}
