"""Latent structure: principal-components factors and varimax rotation.

Factor extraction works on the correlation matrix of the two-mode matrix
itself (not of a one-mode co-occurrence matrix). The caller picks the cells
(raw counts or obs/exp ratios) and the variables, which are the columns:
terms in R-mode, or documents in Q-mode with the matrix transposed.
Loadings are eigenvectors scaled by the square root of their eigenvalues,
optionally varimax-rotated; variables can then be assigned to (and colored
by) the factor they load highest on, with small loadings suppressed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, CowordMapWarning, DataError
from .vectorspace import Graph, pearson_matrix

__all__ = [
    "UNASSIGNED",
    "FactorAssignment",
    "FactorSolution",
    "assign_factors",
    "check_factor_count",
    "factor_analyze",
    "factor_graph",
    "varimax",
]

UNASSIGNED = -1


@dataclass(frozen=True)
class FactorSolution:
    """Loadings of variables on retained factors.

    Attributes:
        loadings: (variables x factors) matrix; rotated when ``rotated``.
        eigenvalues: Extraction-stage eigenvalues of the retained factors.
        rotated: Whether a rotation has been applied.
        variable_labels: One label per loading row.
        rotation_matrix: Orthogonal matrix T with rotated = unrotated @ T,
            or None before rotation.
        rotation_sweeps: Rotation sweeps performed.
        rotation_converged: Whether the criterion gain fell below tolerance.
        criterion_history: Varimax criterion after each sweep.
    """

    loadings: np.ndarray
    eigenvalues: np.ndarray
    rotated: bool
    variable_labels: list[str]
    rotation_matrix: np.ndarray | None = None
    rotation_sweeps: int = 0
    rotation_converged: bool = True
    criterion_history: tuple[float, ...] = ()

    @property
    def n_factors(self) -> int:
        return self.loadings.shape[1]

    @property
    def explained_variance_pct(self) -> np.ndarray:
        """100 * eigenvalue / n_variables, per factor, before rotation."""
        return 100.0 * self.eigenvalues / len(self.variable_labels)

    def communalities(self) -> np.ndarray:
        """Squared loadings summed per variable."""
        return (self.loadings**2).sum(axis=1)


@dataclass(frozen=True)
class FactorAssignment:
    """Which factor each variable belongs to, if any.

    ``factor[j]`` is the 0-based index of the factor with the largest
    absolute loading for variable ``labels[j]``, or :data:`UNASSIGNED` when
    that loading sits inside the closed interval of :func:`assign_factors`.
    ``sign[j]`` is the sign of the decisive loading (0 when unassigned).
    """

    labels: list[str]
    factor: np.ndarray
    sign: np.ndarray


def _apply_sign_convention(loadings: np.ndarray) -> np.ndarray:
    """Flip factor columns so the first largest-magnitude loading is non-negative."""
    top = loadings[np.abs(loadings).argmax(axis=0), np.arange(loadings.shape[1])]
    return np.where(top < 0, -1.0, 1.0)


def check_factor_count(k: int | str) -> None:
    """Raise a ConfigError unless ``k`` is ``"kaiser"`` or a positive integer."""
    if k != "kaiser" and (not isinstance(k, int) or isinstance(k, bool) or k < 1):
        raise ConfigError(f"factors must be a positive integer or 'kaiser', got {k!r}")


def factor_analyze(
    values, labels: list[str] | None = None, k: int | str = "kaiser"
) -> FactorSolution:
    """Extract principal-components factors from the correlation matrix.

    Args:
        values: Real 2-D array, cases x variables.
        labels: One label per variable (default ``c0, c1, ...``).
        k: Number of factors to retain, or ``"kaiser"`` for all factors with
            eigenvalue > 1; a k above the variable count is clamped, with a warning.

    Returns:
        Unrotated solution with a deterministic sign convention: in each
        factor the largest-magnitude loading is non-negative.

    Raises:
        ConfigError: ``k`` fails :func:`check_factor_count`, checked first.
        DataError: Fewer than 2 non-constant variables, or Kaiser retains
            nothing.
    """
    check_factor_count(k)
    corr = pearson_matrix(values, labels)
    p = len(corr.labels)
    if p < 2:
        raise DataError(
            f"factor analysis needs at least 2 non-constant variables, got {p}"
        )

    eigenvalues, eigenvectors = np.linalg.eigh(corr.values)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]

    retained = int((eigenvalues > 1.0).sum()) if k == "kaiser" else min(k, p)
    if retained == 0:  # only Kaiser can retain nothing: k >= 1 and p >= 2
        raise DataError(
            "no eigenvalue exceeds 1; the variables look uncorrelated. "
            "Pass an explicit factor count instead of the Kaiser rule."
        )
    if k != "kaiser" and k > p:
        warnings.warn(
            f"requested {k} factors but only {p} variables; clamping to {p}",
            CowordMapWarning,
            stacklevel=2,
        )

    lam = np.maximum(eigenvalues[:retained], 0.0)  # noise can dip below 0
    loadings = eigenvectors[:, :retained] * np.sqrt(lam)
    flips = _apply_sign_convention(loadings)
    return FactorSolution(
        loadings=loadings * flips,
        eigenvalues=eigenvalues[:retained],
        rotated=False,
        variable_labels=list(corr.labels),
    )


def varimax_criterion(loadings: np.ndarray) -> float:
    """Sum over factors of the variance of squared loadings."""
    sq = loadings**2
    return float((sq**2).mean(axis=0).sum() - (sq.mean(axis=0) ** 2).sum())


def varimax(sol: FactorSolution, kaiser_normalize: bool = True) -> FactorSolution:
    """Rotate the solution to maximize the varimax criterion.

    Sweeps the factor pairs (f, g) in lexicographic order, rotating each
    plane by the analytically optimal angle, until the criterion gain over a
    full sweep drops below 1e-10 or 100 sweeps have run. With
    ``kaiser_normalize`` the rows are divided by the square roots of their
    communalities before rotation and rescaled afterwards.

    Per-variable communalities are preserved (rotation is orthogonal); the
    criterion never decreases from one sweep to the next.

    Returns:
        A rotated copy of ``sol``. A single-factor solution is returned
        unchanged with a notice.
    """
    if sol.n_factors < 2:
        warnings.warn(
            "varimax needs at least 2 factors; returning the solution unchanged",
            CowordMapWarning,
            stacklevel=2,
        )
        return sol

    loadings = sol.loadings.copy()
    p, k = loadings.shape
    scale = np.sqrt(sol.communalities())
    scale = np.where(scale > 0, scale, 1.0)[:, np.newaxis]
    if kaiser_normalize:
        loadings /= scale

    rotation = np.eye(k)
    history = [varimax_criterion(loadings)]
    converged = False
    for _ in range(100):
        for f in range(k - 1):
            for g in range(f + 1, k):
                x, y = loadings[:, f], loadings[:, g]
                u = x * x - y * y
                v = 2.0 * x * y
                a, b = u.sum(), v.sum()
                num = 2.0 * (np.dot(u, v) - a * b / p)
                den = np.dot(u, u) - np.dot(v, v) - (a * a - b * b) / p
                if num == 0.0 and den == 0.0:
                    continue
                phi = 0.25 * math.atan2(num, den)
                c, s = math.cos(phi), math.sin(phi)
                for m in (loadings, rotation):  # the right side is built before either store
                    x, y = m[:, f], m[:, g]
                    m[:, f], m[:, g] = c * x + s * y, -s * x + c * y
        history.append(varimax_criterion(loadings))
        if history[-1] - history[-2] < 1e-10:
            converged = True
            break
    if not converged:
        warnings.warn(
            "varimax did not converge in 100 sweeps",
            CowordMapWarning,
            stacklevel=2,
        )

    if kaiser_normalize:
        loadings *= scale
    flips = _apply_sign_convention(loadings)
    return replace(
        sol,
        loadings=loadings * flips,
        rotated=True,
        rotation_matrix=rotation * flips,
        rotation_sweeps=len(history) - 1,
        rotation_converged=converged,
        criterion_history=tuple(history),
    )


def assign_factors(sol: FactorSolution, suppression: float = 0.1) -> FactorAssignment:
    """Assign each variable to its highest-loading factor, or leave it out.

    A variable whose largest absolute loading lies inside the closed
    interval [-suppression, +suppression] stays unassigned (rendered white
    on maps). Ties between factors go to the lowest factor index.
    """
    abs_loadings = np.abs(sol.loadings)
    best = abs_loadings.argmax(axis=1)
    best_value = abs_loadings[np.arange(len(best)), best]
    assigned = best_value > suppression
    factor = np.where(assigned, best, UNASSIGNED)
    decisive = sol.loadings[np.arange(len(best)), best]
    sign = np.where(assigned, np.where(decisive >= 0, 1, -1), 0)
    return FactorAssignment(
        labels=list(sol.variable_labels),
        factor=factor.astype(np.int64),
        sign=sign.astype(np.int64),
    )


def factor_graph(sol: FactorSolution, suppression: float = 0.1) -> Graph:
    """Bipartite graph of variables and factors.

    Edges exist only for loadings strictly outside the closed suppression
    interval; their weight is the absolute loading and negative loadings
    are dotted.
    """
    p, k = sol.loadings.shape
    rows, cols = np.nonzero(np.abs(sol.loadings) > suppression)  # row-major: (j, f) order
    values = sol.loadings[rows, cols]
    labels = list(sol.variable_labels) + [f"Factor {f + 1}" for f in range(k)]
    return Graph(labels, np.column_stack((rows, p + cols)), np.abs(values), values < 0)
