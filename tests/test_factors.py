"""Factor extraction, varimax rotation, assignment, factor graphs."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from cowordmap.errors import ConfigError, CowordMapWarning, DataError
from cowordmap.factors import (
    UNASSIGNED,
    FactorSolution,
    _apply_sign_convention,
    assign_factors,
    factor_analyze,
    factor_graph,
    varimax,
    varimax_criterion,
)


def solution_from_loadings(loadings, rotated=False) -> FactorSolution:
    """Hand-built solution for rotation/assignment tests."""
    loadings = np.asarray(loadings, dtype=float)
    p, k = loadings.shape
    return FactorSolution(
        loadings=loadings,
        eigenvalues=np.zeros(k),
        rotated=rotated,
        variable_labels=[f"v{j + 1}" for j in range(p)],
    )


def grid_best_angle(loadings, step_deg=0.1):
    """Exhaustive rotation-angle sweep for the 2-factor case."""
    best_angle, best_value = 0.0, -np.inf
    for deg in np.arange(0.0, 90.0, step_deg):
        theta = math.radians(deg)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        value = varimax_criterion(loadings @ rot)
        if value > best_value:
            best_angle, best_value = deg, value
    return best_angle, best_value


def circular_distance_deg(a, b, period=90.0):
    d = abs(a - b) % period
    return min(d, period - d)


class TestFactorAnalyze:
    def test_two_perfectly_correlated_variables(self):
        data = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [1.0, 2.0]])
        sol = factor_analyze(data, k="kaiser")
        np.testing.assert_allclose(sol.eigenvalues, [2.0], atol=1e-12)
        assert sol.n_factors == 1
        np.testing.assert_allclose(sol.loadings[:, 0], [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(sol.explained_variance_pct, [100.0], atol=1e-9)

    def test_uncorrelated_variables_kaiser_retains_none(self):
        data = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        with pytest.raises(DataError, match="explicit factor count"):
            factor_analyze(data, k="kaiser")

    def test_full_retention_reconstructs_correlation(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            data = rng.normal(size=(20, 8))
            sol = factor_analyze(data, k=8)
            np.testing.assert_allclose(
                sol.loadings @ sol.loadings.T, np.corrcoef(data, rowvar=False), atol=1e-8
            )

    def test_eigen_residuals(self):
        rng = np.random.default_rng(43)
        data = rng.normal(size=(20, 8))
        sol = factor_analyze(data, k=8)
        corr = np.corrcoef(data, rowvar=False)
        for f in range(sol.n_factors):
            v = sol.loadings[:, f] / math.sqrt(sol.eigenvalues[f])
            residual = corr @ v - sol.eigenvalues[f] * v
            assert np.linalg.norm(residual) < 1e-8

    @pytest.mark.parametrize("n, p, k", [(30, 6, 6), (50, 12, 4), (25, 9, "kaiser")])
    def test_eigenpairs_match_scipy_eigh(self, n, p, k):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(n * p)
        for _ in range(5):
            data = rng.normal(size=(n, p)) @ rng.normal(size=(p, p))
            sol = factor_analyze(data, k=k)
            corr = np.corrcoef(data, rowvar=False)
            if sol.n_factors == p:  # full retention reconstructs the correlation
                np.testing.assert_allclose(sol.loadings @ sol.loadings.T, corr, atol=1e-12)
            values, vectors = linalg.eigh(corr)
            values, vectors = values[::-1], vectors[:, ::-1]
            retained = sol.n_factors
            np.testing.assert_allclose(sol.eigenvalues, values[:retained], atol=1e-10)
            for f in range(retained):  # the package's sign rule: largest |entry| >= 0
                v = vectors[:, f]
                v = v if v[np.argmax(np.abs(v))] >= 0 else -v
                np.testing.assert_allclose(
                    sol.loadings[:, f], v * math.sqrt(values[f]), atol=1e-8
                )

    def test_eigenvalues_non_increasing_and_communality_bounded(self):
        rng = np.random.default_rng(44)
        counts = rng.integers(1, 9, size=(9, 12))  # dense: no zero margins
        sol = factor_analyze(counts, k=5)
        assert (np.diff(sol.eigenvalues) <= 1e-12).all()
        assert (sol.communalities() <= 1 + 1e-8).all()

    def test_sign_convention(self):
        rng = np.random.default_rng(45)
        sol = factor_analyze(rng.normal(size=(15, 6)), k=4)
        for f in range(sol.n_factors):
            column = sol.loadings[:, f]
            assert column[np.argmax(np.abs(column))] >= 0

    def test_solution_holds_no_variable_by_variable_array(self):
        rng = np.random.default_rng(46)
        sol = factor_analyze(rng.normal(size=(40, 30)), k=3)
        for result in (sol, varimax(sol)):
            for field in dataclasses.fields(result):
                value = getattr(result, field.name)
                assert not (isinstance(value, np.ndarray) and value.shape == (30, 30)), field.name

    def test_sign_convention_ties_go_to_the_first_maximum(self):
        loadings = np.array([[0.5, -0.7, 0.0], [-0.5, 0.7, 0.0], [0.1, -0.2, 0.0]])
        flips = _apply_sign_convention(loadings)
        assert flips.dtype == np.float64 and flips.tolist() == [1.0, -1.0, 1.0]

    def test_constant_column_dropped_before_extraction(self):
        data = np.array([[1.0, 5.0, 2.0], [2.0, 5.0, 4.0], [3.0, 5.0, 5.0]])
        with pytest.warns(CowordMapWarning, match="c1"):
            sol = factor_analyze(data, k=2)
        assert sol.variable_labels == ["c0", "c2"]

    def test_too_few_variables(self):
        data = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.warns(CowordMapWarning):
            with pytest.raises(DataError, match="at least 2"):
                factor_analyze(data, k=1)

    def test_k_clamped_with_warning(self):
        rng = np.random.default_rng(47)
        data = rng.normal(size=(10, 3))
        with pytest.warns(CowordMapWarning, match="clamping"):
            sol = factor_analyze(data, k=7)
        assert sol.n_factors == 3

    def test_invalid_k(self):
        data = np.random.default_rng(48).normal(size=(6, 3))
        with pytest.raises(ConfigError):
            factor_analyze(data, k=0)
        with pytest.raises(ConfigError):
            factor_analyze(data, k="many")


class TestVarimax:
    def test_simple_structure_is_fixed_point(self):
        sol = solution_from_loadings([[1.0, 0.0], [0.0, 1.0]])
        rotated = varimax(sol, kaiser_normalize=False)
        aligned = np.abs(np.abs(rotated.loadings) - np.abs(sol.loadings))
        assert aligned.max() < 1e-9

    def test_mixed_loadings_rotate_to_axes(self):
        c = math.sqrt(0.5)
        sol = solution_from_loadings([[c, c], [c, -c]])
        rotated = varimax(sol, kaiser_normalize=False)
        assert rotated.rotated
        assert varimax_criterion(rotated.loadings) > varimax_criterion(sol.loadings)
        aligned = np.sort(np.abs(rotated.loadings).ravel())
        np.testing.assert_allclose(aligned[:2], 0.0, atol=1e-7)
        np.testing.assert_allclose(aligned[2:], 1.0, atol=1e-7)

    def test_communalities_preserved(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            loadings = rng.normal(size=(rng.integers(4, 12), rng.integers(2, 5)))
            loadings /= np.abs(loadings).max() * 1.3
            sol = solution_from_loadings(loadings)
            for normalize in (False, True):
                rotated = varimax(sol, kaiser_normalize=normalize)
                np.testing.assert_allclose(
                    rotated.communalities(), sol.communalities(), atol=1e-8
                )

    def test_rotation_matrix_orthogonal_and_consistent(self):
        rng = np.random.default_rng(51)
        loadings = rng.normal(size=(8, 3)) / 2
        sol = solution_from_loadings(loadings)
        rotated = varimax(sol, kaiser_normalize=False)
        t = rotated.rotation_matrix
        np.testing.assert_allclose(t.T @ t, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(sol.loadings @ t, rotated.loadings, atol=1e-10)

    def test_criterion_non_decreasing_per_sweep(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            loadings = rng.normal(size=(10, 4)) / 2
            rotated = varimax(solution_from_loadings(loadings))
            history = rotated.criterion_history
            assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
            assert rotated.rotation_converged

    def test_two_factor_angle_matches_grid_sweep(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            loadings = rng.normal(size=(rng.integers(4, 10), 2)) / 2
            sol = solution_from_loadings(loadings)
            rotated = varimax(sol, kaiser_normalize=False)
            t = rotated.rotation_matrix
            angle = math.degrees(math.atan2(t[1, 0], t[0, 0])) % 90.0
            best_angle, _ = grid_best_angle(loadings)
            assert circular_distance_deg(angle, best_angle) <= 0.5

    def test_two_factor_angle_with_kaiser_normalization(self):
        rng = np.random.default_rng(54)
        loadings = rng.normal(size=(7, 2)) / 2
        sol = solution_from_loadings(loadings)
        rotated = varimax(sol, kaiser_normalize=True)
        t = rotated.rotation_matrix
        angle = math.degrees(math.atan2(t[1, 0], t[0, 0])) % 90.0
        h = np.sqrt((loadings**2).sum(axis=1))
        best_angle, _ = grid_best_angle(loadings / h[:, None])
        assert circular_distance_deg(angle, best_angle) <= 0.5

    def test_single_factor_returned_unchanged_with_notice(self):
        sol = solution_from_loadings([[0.9], [0.4]])
        with pytest.warns(CowordMapWarning, match="at least 2"):
            rotated = varimax(sol)
        assert rotated is sol

    def test_sign_convention_after_rotation(self):
        rng = np.random.default_rng(55)
        rotated = varimax(solution_from_loadings(rng.normal(size=(9, 3)) / 2))
        for f in range(rotated.n_factors):
            column = rotated.loadings[:, f]
            assert column[np.argmax(np.abs(column))] >= 0


class TestAssignFactors:
    def test_argmax_with_sign(self):
        assignment = assign_factors(solution_from_loadings([[0.9, 0.2]]))
        assert assignment.factor[0] == 0
        assert assignment.sign[0] == 1

    def test_below_suppression_unassigned(self):
        assignment = assign_factors(solution_from_loadings([[0.05, 0.02]]))
        assert assignment.factor[0] == UNASSIGNED
        assert assignment.sign[0] == 0

    def test_boundary_loading_suppressed(self):
        assignment = assign_factors(solution_from_loadings([[0.1, -0.1]]))
        assert assignment.factor[0] == UNASSIGNED

    def test_tie_goes_to_lowest_factor(self):
        assignment = assign_factors(solution_from_loadings([[0.5, -0.5]]))
        assert assignment.factor[0] == 0

    def test_negative_decisive_loading(self):
        assignment = assign_factors(solution_from_loadings([[0.2, -0.8]]))
        assert assignment.factor[0] == 1
        assert assignment.sign[0] == -1

    def test_scaling_decisive_column_up_keeps_assignment(self):
        rng = np.random.default_rng(56)
        loadings = rng.normal(size=(12, 3)) / 2
        base = assign_factors(solution_from_loadings(loadings))
        for scale in (2.0, 10.0):
            for f in range(3):
                scaled = loadings.copy()
                scaled[:, f] *= scale
                after = assign_factors(solution_from_loadings(scaled))
                was_f = base.factor == f
                assert (after.factor[was_f] == f).all()

    def test_assignment_is_argmax_rule(self):
        rng = np.random.default_rng(57)
        loadings = rng.normal(size=(20, 4)) / 2
        assignment = assign_factors(solution_from_loadings(loadings), suppression=0.1)
        for j in range(20):
            expected = int(np.argmax(np.abs(loadings[j])))
            if abs(loadings[j, expected]) > 0.1:
                assert assignment.factor[j] == expected
            else:
                assert assignment.factor[j] == UNASSIGNED


class TestFactorGraph:
    def test_negative_loading_dotted(self):
        g = factor_graph(solution_from_loadings([[-0.5, 0.0]]))
        assert g.edges.tolist() == [[0, 1]]
        assert g.dotted.tolist() == [True] and g.weights[0] == pytest.approx(0.5)

    def test_boundary_loading_suppressed(self):
        g = factor_graph(solution_from_loadings([[0.1, -0.1]]))
        assert g.edges.shape == (0, 2)

    def test_all_suppressed_keeps_nodes(self):
        g = factor_graph(solution_from_loadings([[0.05, 0.0], [0.0, -0.08]]))
        assert len(g.nodes) == 4  # 2 variables + 2 factor nodes
        assert g.nodes[2:] == ["Factor 1", "Factor 2"]
        assert g.edges.shape == (0, 2)

    def test_bipartite_structure_and_weights(self):
        g = factor_graph(solution_from_loadings([[0.9, 0.0], [0.3, -0.4]]))
        p = 2
        for (a, b), weight in zip(g.edges.tolist(), g.weights.tolist()):
            assert a < p <= b
            assert weight > 0.1
        weights = dict(zip(map(tuple, g.edges.tolist()), g.weights.tolist()))
        assert weights[(0, 2)] == pytest.approx(0.9)
        assert weights[(1, 3)] == pytest.approx(0.4)
