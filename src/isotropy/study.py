"""Monte Carlo size/power studies over a grid of anisotropy scenarios.

A study simulates fields for every (anisotropy, effective range) cell,
runs every configured method on the same realizations, and reports the
empirical rejection rate at the chosen level with its binomial standard
error.  Replicates use independent, index-derived random streams, so a
report is byte-identical no matter how many worker processes run it.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import MISSING, asdict, dataclass

import numpy as np

from .core import GridSpec, SpatialDataset, default_lag_set
from .distributions import RngStream, mix64
from .estimators import (
    EmptyNeighborhoodError,
    EstimatorConfig,
    KernelSpec,
    NoPairsError,
    check_tuning,
)
from .grf import (
    AnisotropyParams,
    ExponentialCovariance,
    FactorizationError,
    GrfSampler,
    uniform_locations,
)
from .resampling import Rect, ResamplingError, WindowSpec, check_n_boot
from .spatial_tests import (
    PVALUE_MODES,
    SingularityError,
    TestResult,
    gsc_gridded_test,
    gsc_nongridded_test,
    ms_test,
)
from .spectral_tests import (
    DegeneratePeriodogramError,
    SymmetryTestResult,
    lz_complete_test,
    periodogram,
)

__all__ = [
    "GridDesign",
    "UniformDesign",
    "parse_design",
    "design_from_dict",
    "MethodSpec",
    "StudyConfig",
    "CellResult",
    "StudyReport",
    "run_power_study",
    "PRESETS",
    "get_preset",
]

# Stream-id salts separating the independent random purposes of a cell.
_SALT_LOCATIONS = 101
_SALT_FIELD = 202
_SALT_METHOD = 303


class StudyError(RuntimeError):
    """Invalid configuration or too many replicate failures."""


@dataclass(frozen=True)
class GridDesign:
    """A complete ``n_cols`` x ``n_rows`` grid from the origin; its domain
    gives every point one grid cell."""

    n_cols: int
    n_rows: int
    spacing: float = 1.0

    def __post_init__(self):
        if _integer(self.n_cols, "n_cols") < 2 or _integer(self.n_rows, "n_rows") < 2:
            raise StudyError("grid design needs at least 2x2 points")
        _store_reals(self, "spacing", positive=True)

    def sample(self, rng: RngStream) -> tuple[np.ndarray, GridSpec, Rect]:
        """(locations, grid, domain); a grid is fixed, so ``rng`` is unused."""
        grid = GridSpec(self.n_cols, self.n_rows, self.spacing)
        domain = Rect(0.0, 0.0, self.n_cols * self.spacing, self.n_rows * self.spacing)
        return grid.locations(), grid, domain


@dataclass(frozen=True)
class UniformDesign:
    """``n`` locations drawn uniformly on ``[0, width) x [0, height)``."""

    n: int
    width: float
    height: float

    def __post_init__(self):
        if _integer(self.n, "n") < 2:
            raise StudyError("uniform design needs n >= 2")
        _store_reals(self, "width", "height", positive=True)

    def sample(self, rng: RngStream) -> tuple[np.ndarray, None, Rect]:
        """(locations drawn from ``rng``, no grid, domain)."""
        locations = uniform_locations(self.n, self.width, self.height, rng)
        return locations, None, Rect(0.0, 0.0, self.width, self.height)


def parse_design(text: str) -> GridDesign | UniformDesign:
    """Design from ``grid:COLSxROWS[:SPACING]`` or ``uniform:N:WIDTHxHEIGHT``."""
    kind, *rest = text.split(":")
    try:
        if kind == "grid" and len(rest) in (1, 2):
            cols, rows = rest[0].lower().split("x")
            return GridDesign(int(cols), int(rows), float(rest[1]) if len(rest) == 2 else 1.0)
        if kind == "uniform" and len(rest) == 2:
            width, height = rest[1].lower().split("x")
            return UniformDesign(int(rest[0]), float(width), float(height))
    except ValueError:
        pass
    raise StudyError(f"cannot parse design {text!r}; use grid:COLSxROWS[:SPACING] or "
                     "uniform:N:WIDTHxHEIGHT")


DESIGN_KINDS = {"grid": GridDesign, "uniform": UniformDesign}


def _integer(value, key: str) -> int:
    """``value`` if an int (not a float, bool or string), else StudyError naming ``key``."""
    if type(value) is int:
        return value
    raise StudyError(f"{key} must be an integer, not {value!r}")


def _real(value, key: str) -> float:
    """``value`` as a float if an int or a float (not a bool), else StudyError naming ``key``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise StudyError(f"{key} must be a number, not {value!r}")


def _reals(values, key: str, item=_real) -> tuple:
    """A non-empty list ``values`` as a tuple of ``item(value, key)``, else StudyError."""
    if not isinstance(values, (list, tuple)):
        raise StudyError(f"{key} must be a list, not {values!r}")
    if not values:
        raise StudyError(f"{key} list must be non-empty")
    return tuple(item(value, key) for value in values)


def _store_reals(obj, *keys: str, positive: bool = False) -> None:
    """Store the fields ``keys`` of ``obj`` as floats; if ``positive``, positive and finite."""
    for key in keys:
        value = _real(getattr(obj, key), key)
        if positive and not (0 < value < np.inf):
            raise StudyError(f"{key} must be positive and finite, not {value!r}")
        object.__setattr__(obj, key, value)


def _checked_keys(cls, d: dict, what: str) -> dict:
    """``d``, if it names every field of ``cls`` without a default and no other key."""
    unknown = sorted(set(d) - set(cls.__dataclass_fields__))
    if unknown:
        raise StudyError(f"unknown {what} key {', '.join(map(repr, unknown))}")
    for key, field in cls.__dataclass_fields__.items():
        if key not in d and field.default is MISSING:
            raise StudyError(f"config missing required key {key!r}")
    return d


def design_from_dict(d: dict) -> GridDesign | UniformDesign:
    """Design from the ``design`` object of a study config JSON."""
    if not isinstance(d, dict):
        raise StudyError(f"design must be a JSON object, not {d!r}")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in DESIGN_KINDS:
        raise StudyError(f"unknown design kind {kind!r}")
    fields = {key: value for key, value in d.items() if key != "kind"}
    return DESIGN_KINDS[kind](**_checked_keys(DESIGN_KINDS[kind], fields, f"{kind} design"))


@dataclass(frozen=True)
class MethodSpec:
    """One test method with its tuning parameters.

    ``lag_scale`` multiplies the default lags, in grid spacings.
    ``window`` is (width, height) in domain units for the moving window
    (gsc-g, gsc-u) or bootstrap block (ms); None picks the built-in
    default for the design and takes no ``offset_step``.  A setting the
    method does not read (see :attr:`Method.reads`) must keep its default.
    """

    method: str
    label: str = ""
    lag_scale: float = 1.0
    extra_lag_pair: bool = False
    window: tuple[float, float] | None = None
    offset_step: float | None = None
    kernel: str = "truncated_gaussian"
    truncation: float = 1.5
    bandwidth: float = 0.75
    pvalue_mode: str | None = None
    n_boot: int = 100
    tuning: float = 1.0

    def __post_init__(self):
        if self.method not in METHOD_TABLE:
            raise StudyError(
                f"unknown method {self.method!r}; expected one of {tuple(METHOD_TABLE)}")
        if not self.label:
            object.__setattr__(self, "label", self.method)
        if any(c in str(self.label) for c in ',"\r\n'):  # a CSV field, and never quoted
            raise StudyError(f"label {self.label!r} holds a comma, double quote or line break")
        if not isinstance(self.extra_lag_pair, bool):
            raise StudyError(f"extra_lag_pair must be true or false, not {self.extra_lag_pair!r}")
        # numbers are checked, not converted: an echo keeps its ints
        if self.window is not None:
            if len(_reals(self.window, "window")) != 2:
                raise StudyError(f"window must be [width, height], not {list(self.window)}")
            object.__setattr__(self, "window", tuple(self.window))
        elif self.offset_step is not None:
            raise StudyError("an offset step needs a window")
        for key in ("lag_scale", "truncation", "bandwidth", "tuning"):
            _real(getattr(self, key), key)
        if self.offset_step is not None:
            _real(self.offset_step, "offset_step")
        fields = self.__dataclass_fields__
        METHOD_TABLE[self.method].refuse_unread(self.method, [
            name for name in fields if name not in ("method", "label")
            and getattr(self, name) != fields[name].default])
        if self.pvalue_mode not in (None, *PVALUE_MODES):
            raise StudyError(f"unknown p-value mode {self.pvalue_mode!r}; "
                             f"expected one of {PVALUE_MODES}")
        try:  # the checks of what a runner builds, before any field is drawn
            default_lag_set(self.lag_scale, self.extra_lag_pair)
            self.window_spec()
            KernelSpec(self.kernel, self.truncation)
            EstimatorConfig("kernel_semivariogram", bandwidth=self.bandwidth)
            check_n_boot(_integer(self.n_boot, "n_boot"))
            check_tuning(self.tuning)
        except ValueError as exc:
            raise StudyError(f"method {self.label}: {exc}") from None

    def window_spec(self) -> WindowSpec | None:
        if self.window is None:
            return None
        return WindowSpec(self.window[0], self.window[1], self.offset_step)


# The runners look the tests up by their module-level names on every
# call, so a wrapper installed on this module sees each call.  The
# quadratic-form tests build their default contrast from the lag set.

def _windowed(spec, dataset, values, domain) -> dict:
    """The lag set, domain and values that every quadratic-form runner passes."""
    lag_set = default_lag_set(spec.lag_scale, spec.extra_lag_pair, dataset.grid)
    return {"lag_set": lag_set, "domain": domain, "values": values}


def _run_gsc_g(spec, dataset, values, domain, alpha, rng):
    return gsc_gridded_test(dataset, window=spec.window_spec(), pvalue_mode=spec.pvalue_mode,
                            **_windowed(spec, dataset, values, domain))


def _run_gsc_u(spec, dataset, values, domain, alpha, rng):
    return gsc_nongridded_test(
        dataset, kernel=KernelSpec(spec.kernel, spec.truncation), bandwidth=spec.bandwidth,
        window=spec.window_spec(), pvalue_mode=spec.pvalue_mode,
        **_windowed(spec, dataset, values, domain))


def _run_ms(spec, dataset, values, domain, alpha, rng):
    return ms_test(dataset, block=spec.window_spec(), n_boot=spec.n_boot, tuning=spec.tuning,
                   rng=rng, **_windowed(spec, dataset, values, domain))


def _run_lz(spec, dataset, values, domain, alpha, rng):
    return lz_complete_test(periodogram(dataset, values), alpha)


@dataclass(frozen=True)
class Method:
    """How the study harness and the CLI run one test: ``min_n`` is the sample size
    below which its reference distribution is unreliable, ``reads`` the settings its
    runner reads (:class:`MethodSpec` fields, and ``seed`` and ``domain`` of ``isotropy
    test``), and ``run(spec, dataset, values, domain, alpha, rng)`` calls the test as its
    function takes ``values``: None gives the dataset's result with the random stream
    ``rng``, or raises its failure; ``values`` (R, n), fields on ``dataset``'s locations
    with a stream each in ``rng``, give one outcome per row, a result or the
    :data:`NUMERICAL_ERRORS` instance it failed with; a block failure raises."""

    needs_grid: bool
    min_n: int
    reads: tuple[str, ...]
    run: Callable[..., TestResult | SymmetryTestResult | list]

    def refuse_unread(self, name: str, settings) -> None:
        """Raise StudyError on the first of ``settings`` (names of settings
        given other than their default) that method ``name`` does not read."""
        unread = [s.replace("_", " ").replace("pvalue", "p-value")
                  for s in settings if s not in self.reads]
        if unread:
            raise StudyError(f"method {name} has no {unread[0]} to choose; it reads "
                             f"{', '.join(self.reads) or 'no setting'}")


# The settings every quadratic-form test reads: its lags and its window or
# block, inside the sampling domain.  Only moving windows read an offset
# step; bootstrap blocks tile the domain.
_WINDOWED = ("lag_scale", "extra_lag_pair", "window", "domain")

# Every test the package offers; a new test is one more entry.
METHOD_TABLE = {
    "gsc-g": Method(True, 150, (*_WINDOWED, "offset_step", "pvalue_mode"), _run_gsc_g),
    "gsc-u": Method(False, 300, (*_WINDOWED, "offset_step", "kernel", "truncation",
                                 "bandwidth", "pvalue_mode"), _run_gsc_u),
    "ms": Method(False, 300, (*_WINDOWED, "n_boot", "tuning", "seed"), _run_ms),
    "lz": Method(True, 150, (), _run_lz),
}

# Failures of a test on one dataset, as opposed to faults in the code:
# a study counts them per cell, the CLI exits with code 3.
NUMERICAL_ERRORS = (
    FactorizationError, SingularityError, ResamplingError, NoPairsError,
    EmptyNeighborhoodError, DegeneratePeriodogramError, np.linalg.LinAlgError,
)


@dataclass(frozen=True)
class StudyConfig:
    """Full specification of a size/power study."""

    design: GridDesign | UniformDesign
    methods: tuple[MethodSpec, ...]
    effective_ranges: tuple[float, ...] = (3.0, 6.0, 12.0)
    anisotropies: tuple[tuple[float, float], ...] = (
        (1.0, 0.0),
        (1.4142135623730951, 0.0),
        (2.0, 0.0),
        (1.4142135623730951, 1.1780972450961724),
        (2.0, 1.1780972450961724),
    )
    sigma2: float = 1.0
    tau2: float = 0.0
    replicates: int = 200
    alpha: float = 0.05
    master_seed: int = 20260810

    def __post_init__(self):
        _integer(self.master_seed, "master_seed")
        if _integer(self.replicates, "replicates") < 1:
            raise StudyError("replicates must be positive")
        _store_reals(self, "sigma2", "tau2", "alpha")
        for key, item in (("effective_ranges", _real), ("anisotropies", _reals)):
            object.__setattr__(self, key, _reals(getattr(self, key), key, item))
        for pair in self.anisotropies:
            if len(pair) != 2:
                raise StudyError(f"anisotropies pair must be [ratio, angle], not {list(pair)}")
        if not (0 < self.alpha < 1):
            raise StudyError("alpha must be in (0, 1)")
        try:  # the field checks of every cell, before any field is drawn
            for _, (ratio, angle), xi in self.cells():
                ExponentialCovariance.from_effective_range(xi, self.sigma2, self.tau2)
                AnisotropyParams(ratio, angle)
        except ValueError as exc:
            raise StudyError(f"invalid config value: {exc}") from None
        if not self.methods:
            raise StudyError("at least one method is required")
        labels = set()
        for m in self.methods:
            if m.label in labels:  # a block keys its counts by label
                raise StudyError(f"two methods are labelled {m.label!r}")
            labels.add(m.label)
            if METHOD_TABLE[m.method].needs_grid and not isinstance(self.design, GridDesign):
                raise StudyError(f"method {m.label} requires a grid design")

    def cells(self) -> list[tuple[int, tuple[float, float], float]]:
        """(index, anisotropy, effective range) of every cell, range fastest."""
        pairs = [(aniso, xi) for aniso in self.anisotropies for xi in self.effective_ranges]
        return [(idx, aniso, xi) for idx, (aniso, xi) in enumerate(pairs)]

    def to_json(self) -> str:
        d = asdict(self)
        d["design"]["kind"] = {cls: kind for kind, cls in DESIGN_KINDS.items()}[type(self.design)]
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StudyConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StudyError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise StudyError(f"config must be a JSON object, not {type(d).__name__}")
        try:
            return cls(**_checked_keys(cls, d, "config") | {
                "design": design_from_dict(d["design"]),
                "methods": tuple(MethodSpec(**m) for m in d["methods"])})
        except (TypeError, ValueError) as exc:
            raise StudyError(f"invalid config value: {exc}") from exc


@dataclass(frozen=True)
class CellResult:
    method: str
    ratio: float
    angle: float
    effective_range: float
    replicates: int
    n_reject: int
    n_failed: int
    mean_seconds: float
    field_hash: str

    @property
    def rate(self) -> float:
        """Rejections over all replicates: a failed replicate counts as a
        non-rejection, which is conservative for size."""
        return self.n_reject / self.replicates

    @property
    def se(self) -> float:
        p = self.rate
        return float(np.sqrt(p * (1 - p) / self.replicates))


@dataclass(frozen=True)
class StudyReport:
    config: StudyConfig
    results: tuple[CellResult, ...]

    def rate(self, method: str, ratio: float, angle: float, xi: float) -> float:
        for r in self.results:
            if (r.method == method and abs(r.ratio - ratio) < 1e-9
                    and abs(r.angle - angle) < 1e-9
                    and abs(r.effective_range - xi) < 1e-9):
                return r.rate
        raise KeyError(f"no cell ({method}, {ratio}, {angle}, {xi})")

    def to_csv(self) -> str:
        """Deterministic machine-readable report (no timing columns)."""
        lines = ["method,ratio,angle,effective_range,replicates,n_reject,n_failed,rate,se,field_hash"]
        for r in self.results:
            lines.append(
                f"{r.method},{r.ratio:.9g},{r.angle:.9g},{r.effective_range:.9g},"
                f"{r.replicates},{r.n_reject},{r.n_failed},{r.rate:.6f},{r.se:.6f},{r.field_hash}"
            )
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        """Aligned human-readable summary, one block per method."""
        xis = list(self.config.effective_ranges)
        lines = []
        lines.append(f"replicates={self.config.replicates}  alpha={self.config.alpha}  "
                     f"seed={self.config.master_seed}")
        for m in self.config.methods:
            lines.append("")
            lines.append(f"[{m.label}] rejection rates")
            header = f"  {'R':>8} {'theta':>8} | " + " ".join(f"xi={xi:<6g}" for xi in xis)
            lines.append(header)
            lines.append("  " + "-" * (len(header) - 2))
            for (ratio, angle) in self.config.anisotropies:
                cells = []
                for xi in xis:
                    try:
                        cells.append(f"{self.rate(m.label, ratio, angle, xi):9.3f}")
                    except KeyError:
                        cells.append(f"{'--':>9}")
                lines.append(f"  {ratio:8.4f} {angle:8.4f} | " + " ".join(cells))
        lines.append("")
        lines.append("mean seconds per test:")
        for m in self.config.methods:
            secs = [r.mean_seconds for r in self.results if r.method == m.label]
            if secs:
                lines.append(f"  {m.label}: {np.mean(secs):.3f}")
        return "\n".join(lines) + "\n"


def _run_block(config: StudyConfig, cell_idx: int, rep_lo: int, rep_hi: int):
    """Worker: run all methods on replicates [rep_lo, rep_hi) of one cell.
    A grid design has the same locations in every cell; a uniform design
    draws them once per cell, and the fields vary over replicates.  Returns
    the fields' digests and, per method label, the block's rejections,
    failures and seconds; a failure of the whole block fails every replicate."""
    _, (ratio, angle), xi = config.cells()[cell_idx]
    locations, grid, domain = config.design.sample(
        RngStream(config.master_seed, mix64(_SALT_LOCATIONS, cell_idx)))
    cov = ExponentialCovariance.from_effective_range(xi, config.sigma2, config.tau2)
    sampler = GrfSampler(locations, cov, AnisotropyParams(ratio, angle))
    reps = range(rep_lo, rep_hi)
    values = np.stack([sampler.draw_values(
        RngStream(config.master_seed, mix64(_SALT_FIELD, cell_idx, rep))) for rep in reps])
    dataset = SpatialDataset(locations, values[0], grid=grid)
    digests = [hashlib.sha256(row.tobytes()).digest() for row in values]
    outcomes = {}
    for i, m in enumerate(config.methods):
        rngs = [RngStream(config.master_seed, mix64(_SALT_METHOD, cell_idx, rep, i))
                for rep in reps]
        t0 = time.perf_counter()
        try:
            rows = METHOD_TABLE[m.method].run(m, dataset, values, domain, config.alpha, rngs)
        except NUMERICAL_ERRORS as exc:
            rows = [exc] * len(values)
        seconds = time.perf_counter() - t0
        results = [r for r in rows if not isinstance(r, Exception)]
        outcomes[m.label] = (sum(r.rejects(config.alpha) for r in results),
                             len(rows) - len(results), seconds)
    return digests, outcomes


_BLOCK = 20


def run_power_study(config: StudyConfig, threads: int = 1, progress=None) -> StudyReport:
    """Run the full study; deterministic given (config, master_seed),
    independent of ``threads``."""
    if threads < 1:
        raise StudyError(f"threads must be at least 1, not {threads}")
    cells = config.cells()
    starts = range(0, config.replicates, _BLOCK)
    tasks = [(config, cell_idx, lo, min(lo + _BLOCK, config.replicates))
             for cell_idx, _, _ in cells for lo in starts]
    # both maps return blocks in task order: cell by cell, replicates in order
    blocks = []
    with ExitStack() as stack:
        run_all = stack.enter_context(ProcessPoolExecutor(threads)).map if threads > 1 else map
        for out in run_all(_run_block, *zip(*tasks)):
            blocks.append(out)
            if progress:
                progress(len(blocks), len(tasks))

    results = []
    for cell_idx, (ratio, angle), xi in cells:
        cell_blocks = blocks[cell_idx * len(starts):(cell_idx + 1) * len(starts)]
        cell_hash = hashlib.sha256(b"".join(
            digest for digests, _ in cell_blocks for digest in digests)).hexdigest()[:16]
        for m in config.methods:
            n_reject, n_failed, seconds = map(sum, zip(*(out[m.label] for _, out in cell_blocks)))
            if n_failed > 0.05 * config.replicates:
                raise StudyError(
                    f"cell ({m.label}, R={ratio}, theta={angle}, xi={xi}): "
                    f"{n_failed}/{config.replicates} replicates failed"
                )
            results.append(CellResult(
                method=m.label,
                ratio=ratio,
                angle=angle,
                effective_range=xi,
                replicates=config.replicates,
                n_reject=n_reject,
                n_failed=n_failed,
                mean_seconds=seconds / config.replicates,
                field_hash=cell_hash,
            ))
    return StudyReport(config, tuple(results))


# ---------------------------------------------------------------------------
# Shipped study presets.  Each mirrors one block of the reference
# empirical comparison.

_THETA = 1.1780972450961724  # 3*pi/8
_SQRT2 = 1.4142135623730951


def _gridded_comparison(design: GridDesign, window: tuple[float, float],
                        replicates: int, master_seed: int) -> StudyConfig:
    return StudyConfig(
        design=design,
        methods=(
            MethodSpec("gsc-g", window=window, pvalue_mode="finite_sample"),
            MethodSpec("lz"),
        ),
        replicates=replicates,
        master_seed=master_seed,
    )


def gvl_a(replicates: int = 500, master_seed: int = 20260810) -> StudyConfig:
    """Gridded comparison, 18x12 grid: quadratic-form test vs spectral test."""
    return _gridded_comparison(GridDesign(18, 12), (4.0, 3.0), replicates, master_seed)


def gvl_b(replicates: int = 500, master_seed: int = 20260810) -> StudyConfig:
    """Gridded comparison on the larger 25x15 grid."""
    return _gridded_comparison(GridDesign(25, 15), (5.0, 3.0), replicates, master_seed)


def _uniform_comparison(design: UniformDesign, replicates: int,
                        master_seed: int) -> StudyConfig:
    return StudyConfig(
        design=design,
        methods=(
            MethodSpec("gsc-u", window=(4.0, 2.0), bandwidth=0.75,
                       pvalue_mode="finite_sample"),
            MethodSpec("ms", window=(4.0, 2.0), n_boot=100, tuning=1.0),
        ),
        replicates=replicates,
        master_seed=master_seed,
    )


def gvm_a(replicates: int = 200, master_seed: int = 20260810) -> StudyConfig:
    """Uniform-design comparison, n=300 on 16x10: kernel semivariogram test
    (finite-sample p-values, the recommended default below n=500) vs the
    covariogram/bootstrap test."""
    return _uniform_comparison(UniformDesign(300, 16.0, 10.0), replicates, master_seed)


def gvm_b(replicates: int = 200, master_seed: int = 20260810) -> StudyConfig:
    """Uniform-design comparison, n=450 on 20x10."""
    return _uniform_comparison(UniformDesign(450, 20.0, 10.0), replicates, master_seed)


def lagset_study(replicates: int = 100, master_seed: int = 20260810) -> StudyConfig:
    """Effect of the lag set (unit lags, 2.5x lags, six lags), medium range."""
    methods = []
    for label, scale, extra in (("normal", 1.0, False), ("long", 2.5, False),
                                ("more", 1.0, True)):
        methods.append(MethodSpec("gsc-u", label=f"gsc-u-{label}", lag_scale=scale,
                                  extra_lag_pair=extra, window=(4.0, 2.0),
                                  bandwidth=0.75, pvalue_mode="asymptotic"))
        methods.append(MethodSpec("ms", label=f"ms-{label}", lag_scale=scale,
                                  extra_lag_pair=extra, window=(4.0, 2.0), n_boot=75))
    return StudyConfig(
        design=UniformDesign(400, 16.0, 10.0),
        methods=tuple(methods),
        effective_ranges=(6.0,),
        anisotropies=((1.0, 0.0), (_SQRT2, _THETA), (2.0, _THETA)),
        replicates=replicates,
        master_seed=master_seed,
    )


def blocksize_study(replicates: int = 200, master_seed: int = 20260810) -> StudyConfig:
    """Effect of the window/block size (3x2, 4x2, 5x3), medium range."""
    methods = []
    for label, win in (("small", (3.0, 2.0)), ("normal", (4.0, 2.0)),
                       ("large", (5.0, 3.0))):
        methods.append(MethodSpec("gsc-u", label=f"gsc-u-{label}", window=win,
                                  bandwidth=0.75, pvalue_mode="asymptotic"))
        methods.append(MethodSpec("ms", label=f"ms-{label}", window=win, n_boot=100))
    return StudyConfig(
        design=UniformDesign(300, 16.0, 10.0),
        methods=tuple(methods),
        effective_ranges=(6.0,),
        anisotropies=((1.0, 0.0), (_SQRT2, 0.0), (2.0, 0.0)),
        replicates=replicates,
        master_seed=master_seed,
    )


def bandwidth_study(replicates: int = 100, master_seed: int = 20260810) -> StudyConfig:
    """Bandwidth sensitivity of the kernel semivariogram test (isotropic)."""
    methods = tuple(
        MethodSpec("gsc-u", label=f"gsc-u-w{w}", window=(4.0, 2.0), bandwidth=w,
                   pvalue_mode="asymptotic")
        for w in (0.65, 0.75, 0.85)
    )
    return StudyConfig(
        design=UniformDesign(400, 16.0, 10.0),
        methods=methods,
        anisotropies=((1.0, 0.0),),
        replicates=replicates,
        master_seed=master_seed,
    )


PRESETS = {
    "gvl-a": gvl_a,
    "gvl-b": gvl_b,
    "gvm-a": gvm_a,
    "gvm-b": gvm_b,
    "lagset": lagset_study,
    "blocksize": blocksize_study,
    "bandwidth": bandwidth_study,
}


def get_preset(name: str, **kwargs) -> StudyConfig:
    try:
        return PRESETS[name](**kwargs)
    except KeyError:
        raise StudyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
