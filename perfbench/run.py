#!/usr/bin/env python3
"""Benchmark of the four isotropy tests.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout, against the
package under ``src/``, in this one process with ``threads=1``.  A
workload replays, on one sampling design, what the package's two kinds
of users do: a Monte Carlo study (``run_power_study`` on a preset) and
an analyst's ``isotropy test FILE --method M --out JSON`` calls on CSV
files.  It repeats whole rounds of both for about S seconds, checks
every output against references computed in ``checks.py``, and prints
as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics; with ``--trace 1`` the public functions of every
module are wrapped by ``tracer.py`` and the metrics are per layer.

Workloads (see README.md for why each was chosen):

* ``grid``   -- ``gvl-a`` study rounds; gsc-g and lz calls on 40x30 grid CSVs;
* ``points`` -- ``gvm-a`` study rounds; gsc-u and ms calls on n=1000 uniform CSVs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is measured this many times in child processes, plus once in
# the measuring process; setup_s is the median.
SETUP_PROBES = 4
SETUP_PROBE_TIMEOUT = 60

# Anisotropy designs of the analyst CSVs: (ratio R, angle theta, effective range).
THETA = 1.1780972450961724  # 3*pi/8
FIELD_DESIGNS = (
    (1.0, 0.0, 3.0),
    (1.0, 0.0, 12.0),
    (2.0, 0.0, 6.0),
    (2.0, THETA, 12.0),
)
# The lz CSVs do not depend on --seed: whether an lz call reaches the
# JSON fault depends on the field, and the failed share must be the same
# in every run.
LZ_SEED = 20260810

STUDY_REPLICATES = {"gvl-a": 8, "gvm-a": 2}


def import_program():
    """Import the package from this checkout's ``src`` only."""
    init = SRC / "isotropy" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no package at {init}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import isotropy
    if Path(isotropy.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {isotropy.__file__}, expected {init}")
    import isotropy.cli
    import isotropy.study
    return isotropy


class StudyPart:
    """Rounds of ``run_power_study`` on a preset at a reduced replicate
    count; round r uses master seed ``seed * 1000003 + r``."""

    def __init__(self, iso, preset, seed):
        self.iso = iso
        self.preset = iso.study.PRESETS[preset]
        self.replicates = STUDY_REPLICATES[preset]
        self.seed = seed
        probe = self.preset(replicates=self.replicates)
        self.n_cells = len(probe.cells())
        self.ops_per_round = self.n_cells * self.replicates * len(probe.methods)
        self.cells = []      # (method, ratio, angle, replicates, n_reject)
        self.completed = 0
        self.elapsed = 0.0
        self.blocks = 0

    def round(self, rnd):
        config = self.preset(replicates=self.replicates,
                             master_seed=self.seed * 1_000_003 + rnd)
        study = self.iso.study

        def progress(done, total):
            self.blocks += 1

        t0 = time.perf_counter()
        try:
            report = study.run_power_study(config, threads=1, progress=progress)
        except study.StudyError as exc:  # every operation of the round failed
            print(f"note: study round {rnd} aborted: {exc}", file=sys.stderr)
            return self.ops_per_round, self.ops_per_round
        finally:
            self.elapsed += time.perf_counter() - t0
        failed = sum(r.n_failed for r in report.results)
        self.cells += [(r.method, r.ratio, r.angle, r.replicates, r.n_reject)
                       for r in report.results]
        self.completed += self.ops_per_round - failed
        return self.ops_per_round, failed

    def check(self):
        from checks import check_study
        return check_study(self.cells, self.replicates, self.n_cells)


class AnalystPart:
    """Rounds of in-process ``isotropy test FILE --method M --out JSON``
    calls with CLI defaults, one per (method, CSV)."""

    def __init__(self, iso, kind, seed, workdir):
        self.iso = iso
        from isotropy import (AnisotropyParams, ExponentialCovariance, GridSpec,
                              GrfSampler, RngStream, uniform_locations)
        from isotropy.io import write_dataset_csv

        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.calls = []  # (role, method, csv path)
        for k, (ratio, angle, xi) in enumerate(FIELD_DESIGNS):
            cov = ExponentialCovariance.from_effective_range(xi)
            aniso = None if ratio == 1.0 else AnisotropyParams(ratio, angle)
            if kind == "grid":
                grid = GridSpec(40, 30)
                sampler = GrfSampler(grid.locations(), cov, aniso)
                for method, role, s in (("gsc-g", "gsc", seed), ("lz", "rival", LZ_SEED)):
                    path = workdir / f"{method}-{k}.csv"
                    write_dataset_csv(sampler.draw(RngStream(s, k), grid=grid), path)
                    self.calls.append((role, method, path))
            else:
                loc = uniform_locations(1000, 32.0, 20.0, RngStream(seed, 100 + k))
                path = workdir / f"points-{k}.csv"
                ds = GrfSampler(loc, cov, aniso).draw(RngStream(seed, k))
                write_dataset_csv(ds, path)
                self.calls += [("gsc", "gsc-u", path), ("rival", "ms", path)]
        self.ops_per_round = len(self.calls)
        self.call_s = {"gsc": [], "rival": []}
        self.first = {}   # (method, path) -> (result JSON or None, stdout, repr(error), error)
        self.repeats_differ = []

    def round(self, rnd):
        failed = 0
        out = self.workdir / "result.json"
        for role, method, path in self.calls:
            if out.exists():
                out.unlink()
            stdout, stderr = io.StringIO(), io.StringIO()
            error = None
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                try:
                    code = self.iso.cli.main(["test", str(path), "--method", method,
                                              "--out", str(out)])
                except Exception as exc:  # counted as failed and checked below
                    code, error = None, exc
                dt = time.perf_counter() - t0
            self.call_s[role].append(dt)
            if code != 0:
                failed += 1
                if error is None:
                    error = RuntimeError(f"exit code {code}: {stderr.getvalue().strip()}")
            result = out.read_text() if code == 0 and out.exists() else None
            seen = (result, stdout.getvalue(), repr(error))
            key = (method, path)
            if key not in self.first:
                self.first[key] = seen + (error,)
            elif self.first[key][:3] != seen:
                self.repeats_differ.append(f"{method} on {path.name}: output changed between calls")
        return self.ops_per_round, failed

    def check(self):
        import checks
        problems = list(self.repeats_differ)
        by_method = {"gsc-g": checks.check_gscg, "gsc-u": checks.check_gscu,
                     "ms": checks.check_ms}
        for (method, path), (result, printed, _, error) in self.first.items():
            if error is not None:
                if method == "lz":
                    problems += checks.check_lz_failure(error, printed, path)
                else:
                    print(f"note: {method} on {path.name} failed: {error!r}", file=sys.stderr)
                continue  # counted in "failed"
            if result is None:
                problems.append(f"{method} on {path.name}: no JSON written")
            elif method == "lz":
                problems += checks.check_lz(json.loads(result), path, printed=False)
            else:
                problems += by_method[method](json.loads(result), path)
        return problems


class Workload:
    """One study part and one analyst part on the same kind of design."""

    def __init__(self, name, seed, workdir):
        iso = import_program()
        preset, kind = WORKLOADS[name]
        self.study = StudyPart(iso, preset, seed)
        self.analyst = AnalystPart(iso, kind, seed, workdir)

    def round(self, rnd):
        a1, f1 = self.study.round(rnd)
        a2, f2 = self.analyst.round(rnd)
        return a1 + a2, f1 + f2

    def check(self):
        return self.study.check() + self.analyst.check()


# workload -> (study preset, analyst CSV design)
WORKLOADS = {"grid": ("gvl-a", "grid"), "points": ("gvm-a", "points")}


def probe_setup(args, workdir):
    """Median-ready set-up times measured in fresh interpreters."""
    times = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(workdir / f"probe-{k}")]
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=SETUP_PROBE_TIMEOUT, check=True)
        times.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_timed(workload, seconds):
    """Whole rounds until ``seconds`` have passed; returns (rounds,
    attempted, failed, elapsed)."""
    attempted = failed = rounds = 0
    t0 = time.perf_counter()
    while rounds == 0 or time.perf_counter() - t0 < seconds:
        a, f = workload.round(rounds)
        attempted += a
        failed += f
        rounds += 1
    return rounds, attempted, failed, time.perf_counter() - t0


def median_ms(values):
    return 1000.0 * statistics.median(values)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(workload, tracer, rounds, tests_per_s):
    from tracer import TEST_SPANS, summarize

    spans = summarize(tracer.names, tracer.arrays())

    def per_round(name, field):
        return spans[name][field] / rounds

    def ratio(name):
        a = spans[name]["count_a"]
        return spans[name]["count_b"] / a if a else 0.0

    m = {
        "study.run_power_study.s": per_round("study.run_power_study", "s"),
        "study.self_s": per_round("study.run_power_study", "self_s"),
        "study.blocks": workload.study.blocks / rounds,
        "resampling.windows": per_round("resampling.subsample_variance", "count_a"),
        "resampling.windows_used_ratio": ratio("resampling.subsample_variance"),
        "resampling.resamples_used_ratio": ratio("resampling.gbbb_variance"),
        "spatial_tests.self_s": sum(per_round(n, "self_s") for n in TEST_SPANS),
        "cli.self_s": per_round("cli.main", "self_s"),
        "trace.tests_per_s": tests_per_s,
    }
    for name, fields in (
        ("grf.GrfSampler", ("calls", "s")),
        ("grf.draw", ("calls", "s")),
        ("core.enumerate_lag_pairs", ("calls", "s")),
        ("core.SpatialDataset.take", ("calls",)),
        ("estimators.estimate_G", ("calls", "s", "self_s")),
        ("estimators.KernelSpec.weight", ("calls", "s")),
        ("estimators.empirical_bandwidth", ("s",)),
        ("resampling.subsample_variance", ("calls", "s", "self_s")),
        ("resampling.gbbb_variance", ("calls", "s", "self_s")),
        ("resampling.gbbb_resample", ("calls", "s")),
        ("spatial_tests.gsc_gridded_test", ("calls", "s")),
        ("spatial_tests.gsc_nongridded_test", ("calls", "s")),
        ("spatial_tests.ms_test", ("calls", "s")),
        ("spatial_tests.finite_sample_pvalue", ("calls", "s")),
        ("spectral_tests.periodogram", ("calls", "s")),
        ("spectral_tests.lz_complete_test", ("calls", "s")),
        ("distributions.cvm_test", ("s",)),
        ("distributions.RngStream.generator", ("calls",)),
        ("io.read_dataset_csv", ("calls", "s")),
        ("cli.main", ("s",)),
    ):
        for field in fields:
            m[f"{name}.{field}"] = per_round(name, field)
    units = {"calls": "count", "blocks": "count", "windows": "count",
             "tests_per_s": "1/s"}
    out = {}
    for key, value in m.items():
        last = key.rsplit(".", 1)[-1]
        unit = "ratio" if last.endswith("ratio") else units.get(last, "s")
        out[key] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", default=None, metavar="DIR",
                   help="set up once in DIR, print the set-up time and exit")
    args = p.parse_args(argv)

    if args.setup_only:
        t0 = time.perf_counter()
        Workload(args.workload, args.seed, Path(args.setup_only))
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    workdir = OUT / f"run-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        workload = Workload(args.workload, args.seed, workdir)
        setup_times = [time.perf_counter() - t0]
        if not args.trace:
            setup_times += probe_setup(args, workdir)

        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            rounds, attempted, failed, elapsed = run_timed(workload, args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rss = peak_rss_mb()
        tests_per_s = workload.study.completed / workload.study.elapsed

        problems = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {rounds} rounds, "
          f"{attempted} operations attempted, {failed} failed, {elapsed:.2f} s timed")

    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}.npz")
        metrics = layer_metrics(workload, tracer, rounds, tests_per_s)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "tests_per_s": {"value": tests_per_s, "unit": "1/s"},
            "gsc_call_ms": {"value": median_ms(workload.analyst.call_s["gsc"]), "unit": "ms"},
            "rival_call_ms": {"value": median_ms(workload.analyst.call_s["rival"]), "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
