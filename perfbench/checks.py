"""Correctness checks of the benchmark, written apart from the program.

Each ``check_*`` function takes an output of the program and returns a
list of problems; an empty list means the output is correct.  The
references are recomputed here from the input CSV with numpy and scipy
only: moving-window classical estimates from array slices of the field
matrix, a dense O(n^2) Nadaraya-Watson smoother, a numpy FFT periodogram
and ``scipy.stats.cramervonmises``.  Nothing here imports ``isotropy``.
"""

from __future__ import annotations

import re

import numpy as np
from scipy import stats

# The default lag set and contrasts of the package: lags (1,0), (0,1),
# (1,1), (-1,1); each contrast compares one orthogonal pair.
LAGS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
CONTRAST = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])

# Tolerances for quantities recomputed in another summation order.
REL_TOL = 1e-9
# The CLI prints lz statistics with six decimals.
PRINT_TOL = 6e-7


def read_csv(path):
    """(x, y, value) columns of an ``x,y,value`` CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2]


def field_matrix(x, y, v):
    """Values of a complete unit-spaced grid as an (n_cols, n_rows) array."""
    cols = np.rint(x - x.min()).astype(int)
    rows = np.rint(y - y.min()).astype(int)
    f = np.full((cols.max() + 1, rows.max() + 1), np.nan)
    f[cols, rows] = v
    if np.isnan(f).any() or f.size != v.size:
        raise ValueError("input is not a complete unit-spaced grid")
    return f


def _close(a, b, rel=REL_TOL, abs_=0.0):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= abs_ + rel * np.abs(b)))


# ---------------------------------------------------------------------------
# gsc-g: classical estimates per window from array slices


def _squared_diffs(f, lag):
    """Squared differences of every pair at ``lag`` in block ``f``, laid out
    on the pair anchors."""
    dx, dy = int(lag[0]), int(lag[1])
    n1, n2 = f.shape
    xa = slice(max(0, -dx), n1 - max(0, dx))
    xb = slice(max(0, dx), n1 - max(0, -dx))
    ya = slice(max(0, -dy), n2 - max(0, dy))
    yb = slice(max(0, dy), n2 - max(0, -dy))
    return (f[xb, yb] - f[xa, ya]) ** 2


def _classical(f):
    """Per-lag semivariogram estimates and pair counts of block ``f``."""
    g = np.empty(len(LAGS))
    c = np.empty(len(LAGS))
    for m, lag in enumerate(LAGS):
        d = _squared_diffs(f, lag)
        g[m] = d.mean() / 2.0
        c[m] = d.size
    return g, c


def default_grid_window(n_cols, n_rows):
    """Documented gsc-g default: points per window below sqrt(n), aspect
    following the domain."""
    target = np.sqrt(n_cols * n_rows)
    h = max(2, int(round(np.sqrt(target / (n_cols / n_rows)))))
    w = max(2, int(target // h))
    return w, h


def gscg_reference(f, window):
    """T, the subblock statistics T_k and the full-field estimates of the
    gridded test with moving-window variance."""
    w, h = window
    n1, n2 = f.shape
    g_full, c_full = _classical(f)
    g_win, c_win = [], []
    for ox in range(n1 - w + 1):
        for oy in range(n2 - h + 1):
            g, c = _classical(f[ox:ox + w, oy:oy + h])
            g_win.append(g)
            c_win.append(c)
    g_win = np.asarray(g_win)
    scale = np.sqrt(np.asarray(c_win) / c_full)
    z = scale * (g_win - g_win.mean(axis=0))
    sigma = z.T @ z / g_win.shape[0]
    m = CONTRAST @ sigma @ CONTRAST.T
    y_full = CONTRAST @ g_full
    t = float(y_full @ np.linalg.solve(m, y_full))
    y = (scale * (g_win - g_full)) @ CONTRAST.T
    t_k = np.einsum("ij,ji->i", y, np.linalg.solve(m, y.T))
    return t, t_k, g_full


def check_gscg(out, csv_path):
    x, y, v = read_csv(csv_path)
    f = field_matrix(x, y, v)
    window = default_grid_window(*f.shape)
    t, t_k, g_full = gscg_reference(f, window)
    problems = []
    d = out["diagnostics"]
    if out["method"] != "gsc-g" or out["pvalue_mode"] != "finite_sample" or out["df"] != 2:
        problems.append(f"gsc-g: unexpected method/mode/df {out['method']}, "
                        f"{out['pvalue_mode']}, {out['df']}")
    if tuple(d["window"]) != (float(window[0]), float(window[1])):
        problems.append(f"gsc-g: window {d['window']} != documented default {window}")
    if d["n_usable_windows"] != t_k.size or d["ridge_fallback"]:
        problems.append(f"gsc-g: {d['n_usable_windows']} usable windows "
                        f"(expected {t_k.size}), ridge {d['ridge_fallback']}")
    if not _close(d["g_hat"], g_full):
        problems.append(f"gsc-g: g_hat {d['g_hat']} != {g_full.tolist()}")
    if not _close(out["statistic"], t, rel=1e-8):
        problems.append(f"gsc-g: T {out['statistic']!r} != {t!r}")
    # p = #{T_k >= T} / K; a T_k within rounding of T may count either way.
    lo = np.count_nonzero(t_k >= t * (1 + 1e-8)) / t_k.size
    hi = np.count_nonzero(t_k >= t * (1 - 1e-8)) / t_k.size
    if not lo <= out["p_value"] <= hi:
        problems.append(f"gsc-g: p {out['p_value']!r} outside [{lo}, {hi}] "
                        f"(K={t_k.size})")
    return problems


# ---------------------------------------------------------------------------
# gsc-u and ms: dense Nadaraya-Watson and chi-square p-values


def _kernel(family, u, truncation=1.5):
    if family == "epanechnikov":
        return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    return np.where(np.abs(u) <= truncation, np.exp(-0.5 * u * u), 0.0)


def nadaraya_watson(x, y, v, family, bandwidth, kind, chunk=200):
    """Dense smoother over all ordered pairs i != j at the default lags.

    ``kind`` is "semi" (squared differences / 2) or "cov" (products of
    globally demeaned values, with zero-displacement self pairs).
    """
    n = v.size
    c = v - v.mean()
    num = np.zeros(len(LAGS))
    den = np.zeros(len(LAGS))
    for lo in range(0, n, chunk):
        i = np.arange(lo, min(lo + chunk, n))
        dx = x[None, :] - x[i, None]
        dy = y[None, :] - y[i, None]
        if kind == "semi":
            resp = (v[i, None] - v[None, :]) ** 2 / 2.0
        else:
            resp = c[i, None] * c[None, :]
        off_diag = np.ones(dx.shape, dtype=bool)
        off_diag[np.arange(i.size), i] = False
        for m, (h1, h2) in enumerate(LAGS):
            w = (_kernel(family, (dx - h1) / bandwidth)
                 * _kernel(family, (dy - h2) / bandwidth) * off_diag)
            num[m] += np.sum(w * resp)
            den[m] += np.sum(w)
    if kind == "cov":
        for m, (h1, h2) in enumerate(LAGS):
            w0 = _kernel(family, np.array(-h1 / bandwidth)) * _kernel(family, np.array(-h2 / bandwidth))
            num[m] += w0 * np.sum(c * c)
            den[m] += w0 * n
    return num / den


def median_nn_distance(x, y, chunk=200):
    n = x.size
    nearest = np.empty(n)
    for lo in range(0, n, chunk):
        i = np.arange(lo, min(lo + chunk, n))
        d2 = (x[None, :] - x[i, None]) ** 2 + (y[None, :] - y[i, None]) ** 2
        d2[np.arange(i.size), i] = np.inf
        nearest[i] = np.sqrt(d2.min(axis=1))
    return float(np.median(nearest))


def _check_chi2(out, label):
    p = float(stats.chi2.sf(out["statistic"], out["df"]))
    if out["pvalue_mode"] != "asymptotic_chi2" or not _close(out["p_value"], p, rel=1e-12):
        return [f"{label}: p {out['p_value']!r} ({out['pvalue_mode']}) != chi2.sf(T, df) {p!r}"]
    return []


def check_gscu(out, csv_path):
    x, y, v = read_csv(csv_path)
    g = nadaraya_watson(x, y, v, "truncated_gaussian", 0.75, "semi")
    problems = []
    if out["method"] != "gsc-u" or out["df"] != 2:
        problems.append(f"gsc-u: unexpected method/df {out['method']}, {out['df']}")
    if not _close(out["diagnostics"]["g_hat"], g):
        problems.append(f"gsc-u: g_hat {out['diagnostics']['g_hat']} != {g.tolist()}")
    return problems + _check_chi2(out, "gsc-u")


def check_ms(out, csv_path):
    x, y, v = read_csv(csv_path)
    bw = median_nn_distance(x, y)
    g = nadaraya_watson(x, y, v, "epanechnikov", bw, "cov")
    problems = []
    d = out["diagnostics"]
    if out["method"] != "ms" or out["df"] != 2:
        problems.append(f"ms: unexpected method/df {out['method']}, {out['df']}")
    if not _close(d["bandwidth"], bw):
        problems.append(f"ms: bandwidth {d['bandwidth']!r} != median NN distance {bw!r}")
    if not _close(d["g_hat"], g):
        problems.append(f"ms: g_hat {d['g_hat']} != {g.tolist()}")
    if d["n_boot"] + d["n_failed_resamples"] != 100:
        problems.append(f"ms: {d['n_boot']} + {d['n_failed_resamples']} resamples != 100")
    return problems + _check_chi2(out, "ms")


# ---------------------------------------------------------------------------
# lz: FFT periodogram and scipy's Cramer-von Mises test under F(2,2)


def _half(n):
    return (n - 1) // 2 if n % 2 else n // 2 - 1


def _f22_cdf(x):
    return x / (1.0 + x)


def lz_reference(f):
    """Stage statistics and p-values: stage 1 reflection ratios
    I(k1,k2)/I(-k1,k2), stage 2 index-swap ratios I(k1,k2)/I(k2,k1)."""
    n1, n2 = f.shape
    power = np.abs(np.fft.fft2(f - f.mean())) ** 2 / ((2 * np.pi) ** 2 * n1 * n2)
    m1, m2 = _half(n1), _half(n2)
    k1, k2 = np.meshgrid(np.arange(1, m1 + 1), np.arange(1, m2 + 1), indexing="ij")
    r1 = power[k1, k2].ravel() / power[(-k1) % n1, k2].ravel()
    s1 = stats.cramervonmises(r1, _f22_cdf)
    m = min(m1, m2)
    a, b = np.triu_indices(m, k=1)
    r2 = power[a + 1, b + 1] / power[b + 1, a + 1]
    s2 = stats.cramervonmises(r2, _f22_cdf)
    return ((float(s1.statistic), float(s1.pvalue)),
            (float(s2.statistic), float(s2.pvalue)))


_STAGE = re.compile(r"stage (\d) \([a-z]+\):\s+(?:statistic=([-0-9.e]+) p=([-0-9.e]+)|not reached)")
_DECISION = re.compile(r"decision: (reject|do not reject)")


def parse_lz_stdout(text):
    """The lz result as the CLI prints it (six decimals)."""
    out = {"stage1_statistic": None, "stage1_pvalue": None,
           "stage2_statistic": None, "stage2_pvalue": None, "reject": None}
    for stage, stat, p in _STAGE.findall(text):
        if stat:
            out[f"stage{stage}_statistic"] = float(stat)
            out[f"stage{stage}_pvalue"] = float(p)
    dec = _DECISION.search(text)
    if dec:
        out["reject"] = dec.group(1) == "reject"
    return out


def check_lz(out, csv_path, printed, alpha=0.05):
    """``out`` is the JSON result, or the parsed stdout when ``printed``.

    The package's CvM p-value is the asymptotic limit law, scipy's adds a
    finite-sample correction, so p-values agree to 0.01; statistics agree
    to rounding.
    """
    x, y, v = read_csv(csv_path)
    (s1, p1), (s2, p2) = lz_reference(field_matrix(x, y, v))
    rel, abs_ = (0.0, PRINT_TOL) if printed else (REL_TOL, 0.0)
    problems = []
    if out["stage1_statistic"] is None or not _close(out["stage1_statistic"], s1, rel, abs_):
        problems.append(f"lz: stage 1 statistic {out['stage1_statistic']!r} != {s1!r}")
    elif abs(out["stage1_pvalue"] - p1) > 0.01:
        problems.append(f"lz: stage 1 p {out['stage1_pvalue']!r} far from {p1!r}")
    stage1_rejects = out["stage1_pvalue"] is not None and out["stage1_pvalue"] <= alpha / 2
    if stage1_rejects:
        if out["stage2_pvalue"] is not None or out["reject"] is not True:
            problems.append("lz: stage 2 reported after a stage 1 rejection")
    else:
        if out["stage2_statistic"] is None or not _close(out["stage2_statistic"], s2, rel, abs_):
            problems.append(f"lz: stage 2 statistic {out['stage2_statistic']!r} != {s2!r}")
        elif abs(out["stage2_pvalue"] - p2) > 0.01:
            problems.append(f"lz: stage 2 p {out['stage2_pvalue']!r} far from {p2!r}")
        elif out["reject"] != (out["stage2_pvalue"] <= alpha / 2):
            problems.append(f"lz: decision {out['reject']} disagrees with stage 2 p")
    return problems


# ---------------------------------------------------------------------------
# Studies: properties the methods must have

# One-sided tail probability of each study bound.  Over every seed and
# run the benchmark makes, a correct program trips one with negligible
# probability.
TAIL = 1e-6
# Highest null rejection rate tolerated: twice the level.  The largest
# measured size of these presets is 0.045 (gsc-u) and lz's stage 2 is
# somewhat oversized on 18x12 grids.
NULL_RATE_HI = 0.10
# Lowest power tolerated at R=2, theta=0, pooled over the three ranges:
# measured power is 0.864 / 0.934 / 0.952 for gsc-g (mean 0.92) and
# 0.255 / 0.530 / 0.555 for gsc-u (mean 0.45).  Cells of different power
# pooled vary less than one binomial at their mean rate, so the binomial
# floor is conservative.
POWER_FLOOR = {"gsc-g": 0.75, "gsc-u": 0.35}


def null_bound(n):
    """Most null rejections out of ``n`` that pass."""
    return int(stats.binom.isf(TAIL, n, NULL_RATE_HI))


def power_floor(method, n):
    """Fewest rejections at R=2, theta=0 out of ``n`` that pass."""
    return int(stats.binom.ppf(TAIL, n, POWER_FLOOR[method]))


def check_study(cells, replicates, n_cells):
    """``cells`` is a list of (method, ratio, angle, replicates, n_reject)
    pooled over every study of the run, each with ``replicates`` per cell
    and ``n_cells`` cells per method and study."""
    problems = []
    methods = sorted({c[0] for c in cells})
    for method in methods:
        rows = [c for c in cells if c[0] == method]
        if len(rows) % n_cells:
            problems.append(f"{method}: {len(rows)} cells, not a multiple of {n_cells}")
        bad = [c for c in rows if c[3] != replicates]
        if bad:
            problems.append(f"{method}: cells with {bad[0][3]} replicates, requested {replicates}")
        null = [c for c in rows if c[1] == 1.0]
        n, k = sum(c[3] for c in null), sum(c[4] for c in null)
        if k > null_bound(n):
            problems.append(f"{method}: {k}/{n} null rejections > bound {null_bound(n)}")
        if method in POWER_FLOOR:
            alt = [c for c in rows if c[1] == 2.0 and c[2] == 0.0]
            n, k = sum(c[3] for c in alt), sum(c[4] for c in alt)
            if k < power_floor(method, n):
                problems.append(f"{method}: {k}/{n} rejections at R=2, theta=0 "
                                f"< floor {power_floor(method, n)}")
    return problems


def check_lz_failure(error, printed, csv_path, alpha=0.05):
    """A failed lz call must be the known fault: ``json.dumps`` meets the
    numpy bool that ``reject`` becomes when stage 2 runs unclamped."""
    if not (isinstance(error, TypeError) and "not JSON serializable" in str(error)):
        return [f"lz: unexpected failure {error!r}"]
    out = parse_lz_stdout(printed)
    if out["stage2_pvalue"] is None or out["stage2_pvalue"] <= 1e-6:
        return [f"lz: failed without an unclamped stage 2 ({error!r})"]
    return check_lz(out, csv_path, printed=True, alpha=alpha)
