"""Mean-zero Gaussian random fields with exponential covariance and
optional geometric anisotropy.

Anisotropy is introduced by mapping sampling locations through
``(x, y) @ Rot(theta) @ diag(1, 1/R)`` and evaluating the isotropic
covariance on the transformed distances; simulated values are attached
to the original locations.  Under this map the axis of strongest
correlation lies along ``(sin(theta), cos(theta))``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import SpatialDataset, GridSpec
from .distributions import RngStream

__all__ = [
    "ExponentialCovariance",
    "AnisotropyParams",
    "phi_from_effective_range",
    "anisotropic_transform",
    "covariance_matrix",
    "GrfSampler",
    "simulate_grf",
    "uniform_locations",
]

# Correlation threshold defining the effective range.
EFFECTIVE_RANGE_LEVEL = 0.05


class FactorizationError(RuntimeError):
    """Covariance factorization failed even after jitter escalation."""


@dataclass(frozen=True)
class ExponentialCovariance:
    """Isotropic exponential covariance with partial sill, nugget and decay.

    ``C(0) = tau2 + sigma2`` and ``C(h) = sigma2 * exp(-phi * h)`` for h > 0.
    """

    sigma2: float
    tau2: float
    phi: float

    def __post_init__(self):
        _check_variances(self.sigma2, self.tau2)
        if not (0 < self.phi < np.inf):
            raise ValueError(f"decay rate phi must be positive and finite, not {self.phi}")

    @property
    def sill(self) -> float:
        return self.sigma2 + self.tau2

    def __call__(self, h):
        h = np.asarray(h, dtype=float)
        out = np.where(h > 0, self.sigma2 * np.exp(-self.phi * h), self.sill)
        return float(out) if out.ndim == 0 else out

    def correlation(self, h):
        return self(h) / self.sill

    def semivariogram(self, h):
        h = np.asarray(h, dtype=float)
        out = np.where(h > 0, self.sill - self.sigma2 * np.exp(-self.phi * h), 0.0)
        return float(out) if out.ndim == 0 else out

    def effective_range(self) -> float:
        """Distance at which the model correlation drops to 0.05."""
        return float(
            np.log(self.sigma2 / (EFFECTIVE_RANGE_LEVEL * self.sill)) / self.phi
        )

    @classmethod
    def from_effective_range(
        cls, xi: float, sigma2: float = 1.0, tau2: float = 0.0
    ) -> "ExponentialCovariance":
        return cls(sigma2, tau2, phi_from_effective_range(xi, sigma2, tau2))


def _check_variances(sigma2: float, tau2: float) -> None:
    if not (0 < sigma2 < np.inf):
        raise ValueError(f"partial sill sigma2 must be positive and finite, not {sigma2}")
    if not (0 <= tau2 < np.inf):
        raise ValueError(f"nugget tau2 must be nonnegative and finite, not {tau2}")


def phi_from_effective_range(xi: float, sigma2: float = 1.0, tau2: float = 0.0) -> float:
    """Decay rate such that correlation reaches 0.05 at distance ``xi``."""
    if not (0 < xi < np.inf):
        raise ValueError(f"effective range xi must be positive and finite, not {xi}")
    _check_variances(sigma2, tau2)
    ratio = EFFECTIVE_RANGE_LEVEL * (tau2 + sigma2) / sigma2
    if ratio >= 1:
        raise ValueError(
            "nugget too large: correlation never reaches the 0.05 threshold"
        )
    return float(-np.log(ratio) / xi)


@dataclass(frozen=True)
class AnisotropyParams:
    """Geometric anisotropy: axis ratio ``ratio >= 1`` and rotation ``angle``
    in radians, reduced to [0, pi)."""

    ratio: float
    angle: float = 0.0

    def __post_init__(self):
        if not (1 <= self.ratio < np.inf):
            raise ValueError(f"anisotropy ratio must be finite and >= 1, not {self.ratio}")
        if not np.isfinite(self.angle):
            raise ValueError(f"anisotropy angle must be finite, not {self.angle}")
        object.__setattr__(self, "angle", float(self.angle) % np.pi)

    @property
    def is_isotropic(self) -> bool:
        return self.ratio == 1.0

    def matrix(self) -> np.ndarray:
        """Location transform for row-vector right-multiplication."""
        c, s = np.cos(self.angle), np.sin(self.angle)
        rot = np.array([[c, s], [-s, c]])
        return rot @ np.diag([1.0, 1.0 / self.ratio])


def anisotropic_transform(locations: np.ndarray, aniso: AnisotropyParams) -> np.ndarray:
    """Map locations into the coordinates in which the field is isotropic."""
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    return locations @ aniso.matrix()


def covariance_matrix(locations: np.ndarray, cov: ExponentialCovariance) -> np.ndarray:
    """Covariance matrix of the field at the given locations."""
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    n = locations.shape[0]
    if n == 1:
        return np.array([[cov.sill]])
    # distances sqrt(dx*dx + dy*dy), built in place: two n x n arrays at most
    x, y = locations[:, 0], locations[:, 1]
    sigma = x[:, None] - x
    sigma *= sigma
    dy = y[:, None] - y
    dy *= dy
    sigma += dy
    del dy
    np.sqrt(sigma, out=sigma)
    np.fill_diagonal(sigma, np.inf)
    if sigma.min() <= 0:
        warnings.warn(
            "duplicate locations produce a degenerate covariance matrix",
            RuntimeWarning,
            stacklevel=2,
        )
    sigma *= -cov.phi
    np.exp(sigma, out=sigma)
    sigma *= cov.sigma2
    np.fill_diagonal(sigma, cov.sill)
    return sigma


def _cholesky_with_jitter(sigma: np.ndarray, sill: float) -> np.ndarray:
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-10 * sill
    for _ in range(3):
        try:
            return np.linalg.cholesky(sigma + jitter * np.eye(sigma.shape[0]))
        except np.linalg.LinAlgError:
            tried, jitter = jitter, jitter * 10
    raise FactorizationError(
        f"covariance factorization failed after jitter escalation to {tried:g}"
    )


class GrfSampler:
    """Reusable sampler: factors the covariance once, then draws fields.

    Useful for Monte Carlo studies where many replicates share one set of sampling
    locations: a study block stacks :meth:`draw_values` into the ``(R, n)`` array that
    the block functions take with one dataset (see :meth:`SpatialDataset.value_rows`).
    """

    def __init__(
        self,
        locations: np.ndarray,
        cov: ExponentialCovariance,
        aniso: AnisotropyParams | None = None,
    ):
        self.locations = np.atleast_2d(np.asarray(locations, dtype=float)).copy()
        self.cov = cov
        self.aniso = aniso
        coords = self.locations
        if aniso is not None and not aniso.is_isotropic:
            coords = anisotropic_transform(coords, aniso)
        sigma = covariance_matrix(coords, cov)
        self._factor = _cholesky_with_jitter(sigma, cov.sill)

    def draw_values(self, rng: RngStream) -> np.ndarray:
        z = rng.generator().standard_normal(self.locations.shape[0])
        return self._factor @ z

    def draw(self, rng: RngStream, grid: GridSpec | None = None) -> SpatialDataset:
        return SpatialDataset(self.locations, self.draw_values(rng), grid=grid)


def simulate_grf(
    locations: np.ndarray,
    cov: ExponentialCovariance,
    aniso: AnisotropyParams | None = None,
    rng: RngStream = RngStream(0),
    grid: GridSpec | None = None,
) -> SpatialDataset:
    """One draw of the field at the given locations.

    The draw is a sample from MVN(0, Sigma) with Sigma built from the
    (possibly anisotropy-transformed) locations; values are attached to
    the original coordinates.  Deterministic given ``rng``.
    """
    return GrfSampler(locations, cov, aniso).draw(rng, grid=grid)


def uniform_locations(
    n: int, width: float, height: float, rng: RngStream
) -> np.ndarray:
    """``n`` independent uniform locations on [0, width] x [0, height]."""
    if n < 1:
        raise ValueError("need at least one location")
    if not (0 < width < np.inf and 0 < height < np.inf):
        raise ValueError("domain dimensions must be positive and finite")
    gen = rng.generator()
    return gen.random((n, 2)) * np.array([width, height])
