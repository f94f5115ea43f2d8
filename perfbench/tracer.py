"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of the ``isotropy`` modules from
outside the package: each wrapped call records one span (name, start,
end, parent span, call identifier) plus two optional counters.  A
function imported by name into several modules is replaced in every
module that holds it, so calls through any import path are seen.
Spans are kept in compact arrays and written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute path, span name, counter).  A counter maps the
# call's return value to two integers stored on the span: (attempted,
# useful) windows or bootstrap resamples.
TARGETS = (
    ("isotropy.study", "run_power_study", "study.run_power_study", None),
    ("isotropy.grf", "GrfSampler.__init__", "grf.GrfSampler", None),
    ("isotropy.grf", "GrfSampler.draw", "grf.draw", None),
    ("isotropy.core", "enumerate_lag_pairs", "core.enumerate_lag_pairs", None),
    ("isotropy.core", "SpatialDataset.take", "core.SpatialDataset.take", None),
    ("isotropy.estimators", "estimate_G", "estimators.estimate_G", None),
    ("isotropy.estimators", "KernelSpec.weight", "estimators.KernelSpec.weight", None),
    ("isotropy.estimators", "empirical_bandwidth", "estimators.empirical_bandwidth", None),
    ("isotropy.resampling", "subsample_variance", "resampling.subsample_variance",
     lambda r: (r.n_windows, r.window_ghats.shape[0])),
    ("isotropy.resampling", "gbbb_variance", "resampling.gbbb_variance",
     lambda r: (r.n_success + r.n_failed, r.n_success)),
    ("isotropy.resampling", "gbbb_resample", "resampling.gbbb_resample", None),
    ("isotropy.spatial_tests", "gsc_gridded_test", "spatial_tests.gsc_gridded_test", None),
    ("isotropy.spatial_tests", "gsc_nongridded_test", "spatial_tests.gsc_nongridded_test", None),
    ("isotropy.spatial_tests", "ms_test", "spatial_tests.ms_test", None),
    ("isotropy.spatial_tests", "finite_sample_pvalue", "spatial_tests.finite_sample_pvalue", None),
    ("isotropy.spectral_tests", "periodogram", "spectral_tests.periodogram", None),
    ("isotropy.spectral_tests", "lz_complete_test", "spectral_tests.lz_complete_test", None),
    ("isotropy.distributions", "cvm_test", "distributions.cvm_test", None),
    ("isotropy.distributions", "RngStream.generator", "distributions.RngStream.generator", None),
    ("isotropy.io", "read_dataset_csv", "io.read_dataset_csv", None),
    ("isotropy.cli", "main", "cli.main", None),
)

# Spans whose direct children each start a new call identifier: a study
# runs many test calls, whereas a CLI call is one test call.
SPLIT_ROOTS = ("study.run_power_study",)

# The test entry points; their self time is the spatial_tests layer's own
# work (contrast covariance, ridge check, solve).
TEST_SPANS = (
    "spatial_tests.gsc_gridded_test",
    "spatial_tests.gsc_nongridded_test",
    "spatial_tests.ms_test",
)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count_a = array("i")
        self.count_b = array("i")
        self._stack: list[int] = []
        self._split: set[int] = set()
        self._next_call = 0
        self._undo: list = []

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, counter=None):
        nid = self._name(name)
        if name in SPLIT_ROOTS:
            self._split.add(nid)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = stack[-1] if stack else -1
            if parent < 0 or self.name_id[parent] in self._split:
                cid = self._next_call
                self._next_call += 1
            else:
                cid = self.call[parent]
            self.name_id.append(nid)
            self.parent.append(parent)
            self.call.append(cid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.count_a.append(0)
            self.count_b.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None:
                self.count_a[idx], self.count_b[idx] = counter(out)
            return out

        return traced

    def install(self):
        """Replace every target in every loaded ``isotropy`` module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "isotropy" or n.startswith("isotropy.")]
        for mod_name, path, name, counter in TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in path:
                cls_name, meth = path.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._set(owner, meth, orig, self.wrap(name, orig, counter))
                continue
            orig = getattr(mod, path)
            wrapped = self.wrap(name, orig, counter)
            for m in modules:
                if m.__dict__.get(path) is orig:
                    self._set(m, path, orig, wrapped)

    def _set(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "call": np.frombuffer(self.call, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "count_a": np.frombuffer(self.count_a, dtype=np.int32),
            "count_b": np.frombuffer(self.count_b, dtype=np.int32),
        }

    def write(self, path) -> None:
        """Write every span: names, then one row per span."""
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def summarize(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed time, self time (time not covered by
    direct child spans) and summed counters."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - child
    k = len(names)
    nid = spans["name_id"]
    calls = np.bincount(nid, minlength=k)
    total = np.bincount(nid, weights=dur, minlength=k)
    self_s = np.bincount(nid, weights=own, minlength=k)
    ca = np.bincount(nid, weights=spans["count_a"], minlength=k)
    cb = np.bincount(nid, weights=spans["count_b"], minlength=k)
    return {
        n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i]),
            "count_a": float(ca[i]), "count_b": float(cb[i])}
        for i, n in enumerate(names)
    }
