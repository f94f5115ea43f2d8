#!/usr/bin/env python3
"""Check that two source trees give byte-identical outputs.

    python3 tools/same_outputs.py PARENT_DIR CHANGE_DIR

Each directory is the root of a checkout with the package under
``src/``.  Both trees run the same CLI calls, each in its own
subprocess on its own ``src`` under ``OPENBLAS_NUM_THREADS=1``:

* ``study --preset P --replicates 20 --threads T --out report.csv`` for
  every preset and T = 1 and 2: the CSV report, the config echo, and
  the printed table without its "mean seconds per test" lines;
* ``study --config ECHO --out report.csv`` for every preset, with the
  config echo its ``--threads 1`` run wrote: the exit code, the CSV
  report and the config echo, so that the loader is compared too;
* ``simulate`` on grids 18x12, 25x15, 16x16 and 7x9 and on uniform
  designs n=300 (16x10) and n=1,000 (32x20), seeds 1-2, anisotropy
  ratio R = 1 and 2, then ``test FILE --method M --out JSON`` for the
  four methods on each file: the CSV, the JSON, stdout, stderr and the
  exit code;
* on the 18x12 and n=300 files, one more ``test`` call per method with
  settings other than the defaults (``SETTINGS``), its outputs as above;
* ``diagnose directional --data FILE`` on each simulated CSV, and
  ``diagnose contours`` at R = 1 and at R = 2 with angle 0.785
  (``CONTOURS``): stdout, stderr and the exit code.

Every difference is printed, and the exit code is 1 if there is any.
A run takes a few minutes; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

PRESETS = ("gvl-a", "gvl-b", "gvm-a", "gvm-b", "lagset", "blocksize", "bandwidth")
DESIGNS = ("grid:18x12", "grid:25x15", "grid:16x16", "grid:7x9",
           "uniform:300:16x10", "uniform:1000:32x20")
METHODS = ("gsc-g", "gsc-u", "ms", "lz")
# one call per method with other settings than the defaults, on these designs' files
SETTINGS = {
    "gsc-g": ("--window", "4x3", "--pvalue-mode", "asymptotic"),
    "gsc-u": ("--window", "4x2", "--bandwidth", "0.65"),
    "ms": ("--window", "4x2", "--n-boot", "30", "--seed", "5"),
    "lz": ("--alpha", "0.1"),
}
SETTINGS_DESIGNS = ("grid:18x12", "uniform:300:16x10")
CONTOURS = (("--ratio", "1"), ("--ratio", "2", "--angle", "0.785"))


def _without_timing(table: str) -> str:
    """The printed study table without the machine-dependent timing lines."""
    out, skipping = [], False
    for line in table.splitlines(keepends=True):
        if line.startswith("mean seconds per test:"):
            skipping = True
        elif not (skipping and line.startswith("  ")):
            skipping = False
            out.append(line)
    return "".join(out)


def _read(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b"(missing)"


def _outputs(tree: Path, work: Path) -> dict[str, bytes]:
    """Every output of the calls above, by name, from the tree rooted at ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")

    def cli(*args):
        # relative paths, so that printed paths are the same in both trees
        run = subprocess.run([sys.executable, "-m", "isotropy.cli", *args], cwd=work,
                             env=env, capture_output=True)
        return run.returncode, run.stdout, run.stderr.replace(str(tree).encode(), b"TREE")

    out = {}

    def record(name, *args):
        code, stdout, stderr = cli(*args)
        out[f"{name} exit"] = str(code).encode()
        out[f"{name} stdout"] = stdout
        out[f"{name} stderr"] = stderr

    for preset in PRESETS:
        for threads in ("1", "2"):
            name = f"study-{preset}-t{threads}"
            code, stdout, stderr = cli("study", "--preset", preset, "--replicates", "20",
                                       "--threads", threads, "--out", f"{name}.csv")
            out[f"{name} exit"] = str(code).encode()
            out[f"{name} stdout"] = _without_timing(stdout.decode()).encode()
            out[f"{name} stderr"] = stderr
            for suffix in (".csv", ".config.json"):
                out[f"{name}{suffix}"] = _read(work / f"{name}{suffix}")
        name = f"study-{preset}-config"
        code, _, _ = cli("study", "--config", f"study-{preset}-t1.config.json",
                         "--out", f"{name}.csv")
        out[f"{name} exit"] = str(code).encode()
        for suffix in (".csv", ".config.json"):
            out[f"{name}{suffix}"] = _read(work / f"{name}{suffix}")
    for design in DESIGNS:
        for seed in ("1", "2"):
            for ratio in ("1", "2"):
                data = f"{design.replace(':', '_')}-s{seed}-r{ratio}.csv"
                cli("simulate", "--design", design, "--seed", seed, "--ratio", ratio,
                    "--out", data)
                out[data] = _read(work / data)
                record(f"{data} diagnose directional", "diagnose", "directional", "--data", data)
                calls = [(method, ()) for method in METHODS]
                if design in SETTINGS_DESIGNS:
                    calls += SETTINGS.items()
                for method, settings in calls:
                    name = " ".join((data, method, *settings))
                    json_path = f"{data}-{method}{'-set' if settings else ''}.json"
                    record(name, "test", data, "--method", method, *settings, "--out", json_path)
                    out[f"{name} json"] = _read(work / json_path)
    for settings in CONTOURS:
        record(" ".join(("diagnose contours", *settings)), "diagnose", "contours", *settings)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="root of the parent checkout")
    p.add_argument("change", type=Path, help="root of the changed checkout")
    args = p.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "isotropy").is_dir():
            p.error(f"{tree} has no src/isotropy")
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp, "parent"), Path(tmp, "change")]
        for work in works:
            work.mkdir()
        with ThreadPoolExecutor(2) as pool:
            parent, change = pool.map(_outputs, trees, works)
    differences = 0
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name, b"(absent)"), change.get(name, b"(absent)")
        if a != b:
            differences += 1
            print(f"--- {name} differs")
            sys.stdout.writelines(difflib.unified_diff(
                a.decode(errors="replace").splitlines(keepends=True),
                b.decode(errors="replace").splitlines(keepends=True), "parent", "change"))
            print()
    print(f"{len(parent)} outputs compared, {differences} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
