import numpy as np
import pytest

from helpers import (
    REFERENCE_CFG,
    axis_table,
    oracle_damped_least_squares,
    oracle_moment_init_1d,
    oracle_moment_init_2d,
)
from spadcorr import epr, fitting
from spadcorr.config import build_mapping, load_config
from spadcorr.correlator import project_axes
from spadcorr.errors import DegenerateInput
from spadcorr.fitting import (
    _GAUSS1D,
    _GAUSS2D,
    _fit_stack,
    damped_least_squares,
    fit_gaussian_1d,
    fit_gaussian_2d,
    gauss1d_jacobian,
    gauss1d_model,
    gauss2d_jacobian,
    gauss2d_model,
)
from spadcorr.pipeline import correct_chain, run_pair_study


def central_differences(fun, p, scale=1e-6):
    """Column-by-column central finite differences of a residual function."""
    p = np.asarray(p, dtype=float)
    cols = []
    for i in range(p.size):
        h = scale * max(1.0, abs(p[i]))
        pp, pm = p.copy(), p.copy()
        pp[i] += h
        pm[i] -= h
        cols.append((fun(pp) - fun(pm)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def solve_one(fun, jac, p0):
    """damped_least_squares on one problem, as a stack of one."""
    return damped_least_squares(lambda p, rows: fun(p[0])[None],
                                lambda p, rows: jac(p[0])[None],
                                np.asarray(p0, dtype=float)[None])


class TestSolver:
    def test_linear_problem_matches_normal_equations(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=40)
        res = solve_one(lambda p: a @ p - b, lambda p: a, np.zeros(3))
        want = np.linalg.lstsq(a, b, rcond=None)[0]
        np.testing.assert_allclose(res.params[0], want, rtol=1e-8)
        assert res.converged[0]

    def test_accepted_steps_never_raise_the_cost(self):
        rng = np.random.default_rng(5)
        x = np.linspace(-8, 8, 60)
        y = gauss1d_model([3.0, 1.0, 2.0, 0.5], x)
        y = y + rng.normal(0, 0.05, x.size)
        p0 = np.array([1.0, -2.0, 5.0, 0.0])

        def fun(p):
            return gauss1d_model(p, x) - y

        def jac(p):
            return gauss1d_jacobian(p, x)

        res = solve_one(fun, jac, p0)
        want = oracle_damped_least_squares(fun, jac, p0)
        assert res.converged[0] and want.converged
        assert res.iterations[0] == want.iterations
        start, end = fun(p0), fun(res.params[0])
        assert end @ end <= start @ start

    def test_iteration_cap_reports_not_converged(self, monkeypatch):
        rng = np.random.default_rng(6)
        x = np.linspace(-8, 8, 60)
        y = gauss1d_model([3.0, 1.0, 2.0, 0.5], x)
        y = y + rng.normal(0, 0.05, x.size)
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        res = solve_one(lambda p: gauss1d_model(p, x) - y,
                        lambda p: gauss1d_jacobian(p, x),
                        np.array([1.0, -2.0, 5.0, 0.0]))
        assert not res.converged[0]
        assert res.iterations[0] == 1


class TestJacobians:
    def test_gauss1d_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            p = np.array([rng.uniform(0.5, 5.0), rng.uniform(-3, 3),
                          rng.uniform(0.5, 4.0), rng.uniform(-1, 1)])
            x = rng.uniform(-8, 8, 20)
            got = gauss1d_jacobian(p, x)
            want = central_differences(lambda q: gauss1d_model(q, x), p)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_gauss2d_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            p = np.array([rng.uniform(0.5, 4.0), rng.uniform(-2, 2),
                          rng.uniform(-2, 2), rng.uniform(0.5, 3.0),
                          rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5)])
            a = rng.uniform(-6, 6, 20)
            b = rng.uniform(-6, 6, 20)
            got = gauss2d_jacobian(p, a, b)
            want = central_differences(lambda q: gauss2d_model(q, a, b), p)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_stacked_parameters_give_the_rows(self):
        """A (K, n_params) stack with one coordinate row per problem."""
        rng = np.random.default_rng(23)
        p1 = np.column_stack([rng.uniform(0.5, 5.0, 3), rng.uniform(-3, 3, 3),
                              rng.uniform(0.5, 4.0, 3), rng.uniform(-1, 1, 3)])
        x = rng.uniform(-8, 8, (3, 20))
        p2 = np.column_stack([p1, rng.uniform(0.5, 3.0, 3),
                              rng.uniform(-0.5, 0.5, 3)])
        b = rng.uniform(-6, 6, (3, 20))
        for k in range(3):
            np.testing.assert_array_equal(gauss1d_model(p1, x)[k],
                                          gauss1d_model(p1[k], x[k]))
            np.testing.assert_array_equal(gauss1d_jacobian(p1, x)[k],
                                          gauss1d_jacobian(p1[k], x[k]))
            np.testing.assert_array_equal(gauss2d_model(p2, x, b)[k],
                                          gauss2d_model(p2[k], x[k], b[k]))
            np.testing.assert_array_equal(gauss2d_jacobian(p2, x, b)[k],
                                          gauss2d_jacobian(p2[k], x[k], b[k]))


class TestGaussian1d:
    def test_noiseless_recovery(self):
        x = np.linspace(-10, 14, 120)
        y = gauss1d_model([2.0, 3.0, 2.0, 0.0], x)
        fit = fit_gaussian_1d(x, y)
        assert fit.converged
        assert fit.params["amplitude"] == pytest.approx(2.0, abs=1e-6)
        assert fit.params["center"] == pytest.approx(3.0, abs=1e-6)
        assert fit.params["sigma"] == pytest.approx(2.0, abs=1e-6)
        assert fit.params["offset"] == pytest.approx(0.0, abs=1e-6)

    def test_offset_and_negative_start_recovered(self):
        x = np.linspace(0, 40, 80)
        y = gauss1d_model([0.7, 25.0, 4.5, -0.2], x)
        fit = fit_gaussian_1d(x, y)
        assert fit.params["center"] == pytest.approx(25.0, abs=1e-6)
        assert fit.params["offset"] == pytest.approx(-0.2, abs=1e-6)

    def test_nan_points_are_ignored(self):
        x = np.linspace(-10, 10, 50)
        y = gauss1d_model([2.0, 0.0, 3.0, 0.1], x)
        y_bad = y.copy()
        y_bad[7] = np.nan
        x_bad = x.copy()
        x_bad[20] = np.nan
        fit = fit_gaussian_1d(x_bad, y_bad)
        assert fit.params["sigma"] == pytest.approx(3.0, abs=1e-6)
        # a point left out of a stack of one is dropped, not held at zero
        left = [7, 20]
        assert fit == fit_gaussian_1d(np.delete(x, left), np.delete(y, left))

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateInput):
            fit_gaussian_1d(np.arange(4.0), np.array([0.0, 1.0, 2.0, 1.0]))

    def test_flat_input_rejected(self):
        with pytest.raises(DegenerateInput):
            fit_gaussian_1d(np.arange(6.0), np.full(6, 2.0))


class TestGaussian2d:
    def test_noiseless_recovery(self):
        coords = np.linspace(-15, 15, 31)
        aa, bb = np.meshgrid(coords, coords, indexing="ij")
        values = gauss2d_model([5.0, 0.5, -0.3, 2.0, 6.0, 0.1], aa, bb)
        fit = fit_gaussian_2d(values, coords, coords)
        assert fit.converged
        assert fit.params["amplitude"] == pytest.approx(5.0, abs=1e-6)
        assert fit.params["center_a"] == pytest.approx(0.5, abs=1e-6)
        assert fit.params["center_b"] == pytest.approx(-0.3, abs=1e-6)
        assert fit.params["sigma_plus"] == pytest.approx(2.0, abs=1e-6)
        assert fit.params["sigma_minus"] == pytest.approx(6.0, abs=1e-6)
        assert fit.params["offset"] == pytest.approx(0.1, abs=1e-6)

    def test_transpose_swaps_centers_not_widths(self):
        coords_a = np.linspace(-12, 12, 25)
        coords_b = np.linspace(-14, 14, 29)
        aa, bb = np.meshgrid(coords_a, coords_b, indexing="ij")
        values = gauss2d_model([3.0, 1.5, -2.0, 1.8, 5.5, 0.0], aa, bb)
        fit = fit_gaussian_2d(values, coords_a, coords_b)
        fit_t = fit_gaussian_2d(values.T, coords_b, coords_a)
        assert fit_t.params["center_a"] == pytest.approx(
            fit.params["center_b"], abs=1e-6)
        assert fit_t.params["center_b"] == pytest.approx(
            fit.params["center_a"], abs=1e-6)
        # the +- frame is invariant under exchanging the two axes
        assert fit_t.params["sigma_plus"] == pytest.approx(
            fit.params["sigma_plus"], abs=1e-6)
        assert fit_t.params["sigma_minus"] == pytest.approx(
            fit.params["sigma_minus"], abs=1e-6)

    def test_masked_diagonal_band_poisson(self):
        n = 32
        coords = np.arange(n, dtype=float)
        aa, bb = np.meshgrid(coords, coords, indexing="ij")
        truth = gauss2d_model([1e5, 15.5, 15.5, 12.0, 3.0, 0.0], aa, bb)
        rng = np.random.default_rng(77)
        counts = rng.poisson(truth).astype(float)
        mask = np.abs(aa - bb) <= 1.0
        fit = fit_gaussian_2d(counts, coords, coords, mask=mask)
        assert fit.converged
        assert fit.params["sigma_minus"] == pytest.approx(3.0, rel=0.05)
        assert fit.params["sigma_plus"] == pytest.approx(12.0, rel=0.05)

    def test_too_few_cells_rejected(self):
        coords = np.arange(3, dtype=float)
        values = np.ones((3, 3))
        values[1, 1] = 2.0
        with pytest.raises(DegenerateInput):
            fit_gaussian_2d(values, coords, coords)

    def test_fully_masked_rejected(self):
        coords = np.arange(8, dtype=float)
        aa, bb = np.meshgrid(coords, coords, indexing="ij")
        values = gauss2d_model([1.0, 4.0, 4.0, 2.0, 2.0, 0.0], aa, bb)
        with pytest.raises(DegenerateInput):
            fit_gaussian_2d(values, coords, coords,
                            mask=np.ones((8, 8), dtype=bool))


def column_problems(x, values, keep):
    """Stacked and one-at-a-time residuals of the columns of a table.

    Each column becomes the problem _fit_stack builds for it in a stack
    of the table's columns: its dropped rows stay in the residual vector at
    weight 0. Returns (fun, jac, p0, alone) where alone(k) gives column k's
    (fun, jac) for the unstacked oracle.
    """
    x = np.asarray(x, dtype=float)
    ys = np.asarray(values, dtype=float).T
    w = np.asarray(keep, dtype=bool).T.astype(float)
    target = ys * w
    p0 = np.array([oracle_moment_init_1d(x[u > 0], y[u > 0])
                   for y, u in zip(ys, w)])

    def fun(p, rows):
        return (gauss1d_model(p, x) - target[rows]) * w[rows]

    def jac(p, rows):
        return gauss1d_jacobian(p, x) * w[rows][..., None]

    def alone(k):
        return (lambda q: (gauss1d_model(q, x) - target[k]) * w[k],
                lambda q: gauss1d_jacobian(q, x) * w[k][:, None])

    return fun, jac, p0, alone


def assert_matches_oracle(res, alone, p0):
    """Every problem of a stacked result equals its unstacked oracle run."""
    for k in range(p0.shape[0]):
        want = oracle_damped_least_squares(*alone(k), p0[k])
        assert res.converged[k] == want.converged, k
        assert res.iterations[k] == want.iterations, k
        np.testing.assert_allclose(res.params[k], want.params, rtol=1e-6,
                                   atol=1e-12, err_msg=f"problem {k}")


def simulated_tables(arms, near_mapping, far_mapping):
    for mode, mapping in (("near", near_mapping), ("far", far_mapping)):
        corr, _ = correct_chain(arms[mode], mask_radius=1)
        for axis in ("x", "y"):
            yield f"{mode}-{axis}", axis_table(corr, mapping, axis)


class TestStackedSolver:
    """The stacked solver against the one-problem-at-a-time loop."""

    def test_simulated_table_columns(self, reduced_arms, near_mapping,
                                     far_mapping):
        capped = 0
        for label, table in simulated_tables(reduced_arms, near_mapping,
                                             far_mapping):
            fun, jac, p0, alone = column_problems(
                table.coords, table.values, ~table.masked)
            res = damped_least_squares(fun, jac, p0)
            assert_matches_oracle(res, alone, p0)
            capped += int(np.count_nonzero(res.iterations == 200))
        # reduced statistics leave columns that run to the iteration cap
        assert capped > 0

    def test_planted_column_hits_iteration_cap(self):
        x = np.linspace(-60.0, 60.0, 31)
        rng = np.random.default_rng(0)
        good = gauss1d_model([40.0, 5.0, 12.0, 1.0], x)
        spike = 1.5 + rng.normal(0.0, 0.3, x.size)
        spike[12] = 75.0            # one hot point: the width shrinks forever
        values = np.stack([good, spike, good[::-1]], axis=1)
        fun, jac, p0, alone = column_problems(
            x, values, np.ones(values.shape, dtype=bool))
        res = damped_least_squares(fun, jac, p0)
        assert list(res.converged) == [True, False, True]
        assert res.iterations[1] == 200
        assert_matches_oracle(res, alone, p0)

    def test_flat_and_short_columns_are_skipped(self):
        x = np.linspace(-10.0, 10.0, 12)
        values = np.stack([gauss1d_model([3.0, 1.0, 2.5, 0.2], x),
                           np.full(x.size, 2.0),
                           gauss1d_model([2.0, -2.0, 3.0, 0.1], x)], axis=1)
        keep = np.ones(values.shape, dtype=bool)
        keep[4:, 2] = False         # 4 usable points
        fits = _fit_stack(_GAUSS1D, [((x,), np.where(keep, values, np.nan).T)])
        assert list(fits.degenerate) == ["", "flat input has no peak to fit",
                                         "need at least 5 points, got 4"]
        assert list(fits.converged) == [True, False, False]
        for k in (1, 2):
            with pytest.raises(DegenerateInput, match=fits.degenerate[k]):
                fit_gaussian_1d(x[keep[:, k]], values[keep[:, k], k])
        single = fit_gaussian_1d(x, values[:, 0])
        assert single.converged
        assert fits.params[0] == pytest.approx(list(single.params.values()),
                                               rel=1e-9)

    def test_singular_element_falls_back_alone(self, monkeypatch):
        rng = np.random.default_rng(8)
        design = rng.normal(size=(4, 30, 3))
        design[2, :, 1] = design[2, :, 0]   # rank-deficient normal equations
        target = rng.normal(size=(4, 30))
        p0 = np.zeros((4, 3))

        def fun(p, rows):
            return np.matmul(design[rows], p[..., None])[..., 0] - target[rows]

        def jac(p, rows):
            return design[rows]

        def alone(k):
            return (lambda q: design[k] @ q - target[k], lambda q: design[k])

        clean = damped_least_squares(fun, jac, p0)
        real_solve = np.linalg.solve
        raised = []

        def solve(a, b):
            # LAPACK reports an exactly singular matrix for the whole stack;
            # plant that report on the problem with two equal columns
            a = np.asarray(a)
            if np.any((a[..., 0, 0] == a[..., 1, 1])
                      & (a[..., 0, 2] == a[..., 1, 2])):
                raised.append(a.shape)
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        res = damped_least_squares(fun, jac, p0)
        assert any(len(shape) == 3 for shape in raised)
        assert any(len(shape) == 2 for shape in raised)
        for k in (0, 1, 3):
            np.testing.assert_array_equal(res.params[k], clean.params[k])
            assert res.iterations[k] == clean.iterations[k]
            assert res.converged[k] == clean.converged[k]
        assert_matches_oracle(res, alone, p0)


def assert_same_fit(fits, k, want):
    """Row k of a stack equals want, the GaussianFit of that row alone."""
    assert fits.params[k].tolist() == list(want.params.values()), k
    assert (fits.converged[k], fits.iterations[k]) \
        == (want.converged, want.iterations), k


def assert_fit_matches_oracle(fits, k, model, fun, jac, p0):
    """Row k of a stack against the unstacked oracle on the same residuals."""
    want = oracle_damped_least_squares(fun, jac, p0)
    assert fits.converged[k] == want.converged, k
    assert fits.iterations[k] == want.iterations, k
    expect = want.params.copy()
    expect[model.widths] = np.abs(expect[model.widths])
    np.testing.assert_allclose(fits.params[k], expect, rtol=1e-6, atol=1e-12,
                               err_msg=f"row {k}")


def table_block(values, coords_a, coords_b, mask):
    """The block fit_gaussian_2d fits for one table: a stack of one row."""
    values = values if mask is None else np.where(mask, np.nan, values)
    return (np.asarray(coords_a)[:, None], coords_b), values[None]


class TestStackedFits:
    """Stacks of Gaussian problems, each with its own coordinates.

    Problems on the same number of points share one solver run. A problem
    that keeps all its points is fitted exactly as it is alone; one that
    drops points holds them at zero weight where another problem keeps
    them, and matches the oracle on those residuals. A capped, singular or
    degenerate neighbour changes neither.
    """

    def test_1d_per_row_coordinates(self):
        rng = np.random.default_rng(31)
        x = [np.linspace(-60.0, 60.0, 31), np.linspace(-20.0, 35.0, 31),
             np.linspace(-60.0, 60.0, 31), np.linspace(0.0, 9.0, 31),
             np.linspace(-5.0, 5.0, 31), np.linspace(-9.0, 9.0, 17)]
        # the planted column of test_planted_column_hits_iteration_cap
        spike = 1.5 + np.random.default_rng(0).normal(0.0, 0.3, 31)
        spike[12] = 75.0
        holes = gauss1d_model([2.0, 3.0, 7.0, 0.3], x[3]) \
            + rng.normal(0.0, 0.02, 31)
        holes[[4, 5, 20]] = np.nan  # dropped here, kept by the others
        short = np.full(31, np.nan)
        short[:4] = [1.0, 2.0, 1.0, 0.5]
        y = [gauss1d_model([40.0, 5.0, 12.0, 1.0], x[0])
             + rng.normal(0.0, 0.5, 31),
             gauss1d_model([3.0, 10.0, 6.0, -0.2], x[1]),
             spike, holes, short,
             gauss1d_model([1.0, 0.5, 2.0, 0.0], x[5])]
        # one block of five 31-point rows, each with its own coordinates,
        # and one of a 17-point row, which runs in a stack of its own
        fits = _fit_stack(_GAUSS1D, [((np.array(x[:5]),), np.array(y[:5])),
                                     ((x[5],), y[5][None])])
        assert fits.converged[[0, 1, 3, 5]].all()
        assert not fits.converged[2] and fits.iterations[2] == 200
        assert fits.degenerate[4] == "need at least 5 points, got 4"
        assert not fits.converged[4] and np.isnan(fits.params[4]).all()
        with pytest.raises(DegenerateInput, match=fits.degenerate[4]):
            fit_gaussian_1d(x[4], y[4])
        for k in (0, 1, 2, 5):
            assert_same_fit(fits, k, fit_gaussian_1d(x[k], y[k]))
        for k in (0, 1, 2, 3):
            keep = np.isfinite(y[k])
            w = keep.astype(float)
            target = np.where(keep, y[k], 0.0)
            assert_fit_matches_oracle(
                fits, k, _GAUSS1D,
                lambda q: (gauss1d_model(q, x[k]) - target) * w,
                lambda q: gauss1d_jacobian(q, x[k]) * w[:, None],
                oracle_moment_init_1d(x[k][keep], y[k][keep]))

    def test_2d_per_row_coordinates(self, monkeypatch):
        n = 12
        c = np.linspace(-5.0, 5.0, n)
        aa, bb = np.meshgrid(c, c, indexing="ij")
        rng = np.random.default_rng(32)
        clean = gauss2d_model([3.0, 0.5, -0.3, 2.0, 1.0, 0.1], aa, bb)
        good = clean + rng.normal(0.0, 0.01, (n, n))
        wide = np.linspace(-20.0, 10.0, 9)
        other = gauss2d_model([5.0, -4.0, 1.0, 6.0, 3.0, 0.0],
                              *np.meshgrid(wide, np.linspace(-3, 3, 16),
                                           indexing="ij"))
        # noise-free cells on the diagonal only: the two centers move
        # together, sigma_minus's column stays zero and the final steps
        # meet an exactly singular matrix
        diagonal = ~np.eye(n, dtype=bool)
        flat = np.ones((n, n))
        small = np.zeros(n + 4)     # 4 x 4 zero cells: flat
        tables = [(good, c, c, None), (clean, c, c, diagonal),
                  (other, wide, np.linspace(-3, 3, 16), None),
                  (flat, c, c, None), (small.reshape(4, 4), c[:4], c[:4],
                                       None),
                  (good.T, c, c, None),
                  (np.arange(9.0).reshape(3, 3), c[:3], c[:3], None)]
        real_solve = np.linalg.solve
        singular = []

        def solve(a, b):
            try:
                return real_solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(np.ndim(a))
                raise

        monkeypatch.setattr(np.linalg, "solve", solve)
        fits = _fit_stack(_GAUSS2D, [table_block(*t) for t in tables])
        # the stack's solve failed and the singular problem fell back alone
        assert 3 in singular and 2 in singular
        assert list(fits.degenerate) == [
            "", "", "", "flat table has no peak to fit",
            "flat table has no peak to fit", "",
            "need at least 12 unmasked cells, got 9"]
        for k in (3, 4, 6):
            with pytest.raises(DegenerateInput, match=fits.degenerate[k]):
                fit_gaussian_2d(*tables[k])
        for k in (0, 1, 2, 5):
            assert fits.converged[k], k
        for k in (0, 2, 5):
            assert_same_fit(fits, k, fit_gaussian_2d(*tables[k]))
        for k in (0, 1, 5):
            values, ca, cb, mask = tables[k]
            w = np.ones(n * n) if mask is None else (~mask).ravel() * 1.0
            a, b, v = aa.ravel(), bb.ravel(), values.ravel() * w
            keep = w > 0
            assert_fit_matches_oracle(
                fits, k, _GAUSS2D,
                lambda q: (gauss2d_model(q, a, b) - v) * w,
                lambda q: gauss2d_jacobian(q, a, b) * w[:, None],
                oracle_moment_init_2d(a[keep], b[keep], v[keep]))


class TestFitColumns:
    def test_zero_weight_matches_dropped_points(self, reduced_arms,
                                                near_mapping, far_mapping):
        """Zero weights change the rounding of the sums, not the fits.

        The unstacked per-column fit drops masked rows; the stacked fit of
        the NaN-masked columns keeps them at weight 0 where another column
        keeps them. Converged flags agree and converged widths agree to
        1e-6.
        """
        for label, table in simulated_tables(reduced_arms, near_mapping,
                                             far_mapping):
            fits = _fit_stack(_GAUSS1D, [(
                (table.coords,),
                np.where(table.masked, np.nan, table.values).T)])
            assert (fits.degenerate == "").all(), label
            for b in range(table.values.shape[1]):
                keep = ~table.masked[:, b]
                x, y = table.coords[keep], table.values[keep, b]
                want = oracle_damped_least_squares(
                    lambda p: gauss1d_model(p, x) - y,
                    lambda p: gauss1d_jacobian(p, x),
                    oracle_moment_init_1d(x, y))
                assert fits.converged[b] == want.converged, (label, b)
                if want.converged:
                    assert fits.params[b, 2] == pytest.approx(
                        abs(want.params[2]), rel=1e-6), (label, b)


def record_starts(monkeypatch):
    """Patch the solver so that every run records its start stack."""
    starts = []
    real = fitting.damped_least_squares

    def solve(fun, jac, p0):
        starts.append(np.array(p0))
        return real(fun, jac, p0)

    monkeypatch.setattr(fitting, "damped_least_squares", solve)
    return starts


def with_gaps(rng, arrays, kept):
    """NaN gaps at random points, spread over the arrays, so that row r
    keeps kept[r] points."""
    m = arrays[0].shape[1]
    for r, k in enumerate(kept):
        gaps = rng.permutation(m)[:m - k]
        for i, a in enumerate(arrays):
            a[r, gaps[i::len(arrays)]] = np.nan


class TestStartPoints:
    """The stacked moment start points against the one-row oracles, bit
    for bit: every statistic is taken over each row's kept points only."""

    def test_1d_rows_at_every_kept_count(self, monkeypatch):
        rng = np.random.default_rng(41)
        m = 16
        kept = np.arange(2 * (m + 1)) % (m + 1)
        x = np.sort(rng.uniform(-20.0, 20.0, (kept.size, m)), axis=1)
        y = gauss1d_model(np.column_stack([
            rng.uniform(0.5, 5.0, kept.size), rng.uniform(-10, 10, kept.size),
            rng.uniform(1.0, 8.0, kept.size), rng.uniform(-1, 1, kept.size)]),
            x) + rng.normal(0.0, 0.05, x.shape)
        with_gaps(rng, [x, y], kept)
        x[5][np.isfinite(x[5])] = 0.0               # no coordinate span
        y[7][np.isfinite(y[7])] = 0.0               # one point above the rest
        y[7, np.flatnonzero(np.isfinite(x[7]) & np.isfinite(y[7]))[2]] = 1.0
        starts = record_starts(monkeypatch)
        fits = _fit_stack(_GAUSS1D, [((x,), y)])
        keep = np.isfinite(x) & np.isfinite(y)
        fitted = np.flatnonzero(kept >= 5)
        assert list(np.flatnonzero(fits.degenerate == "")) == list(fitted)
        np.testing.assert_array_equal(starts[0], [
            oracle_moment_init_1d(x[r][keep[r]], y[r][keep[r]])
            for r in fitted])
        assert starts[0][list(fitted).index(5), 2] == 1.0
        assert starts[0][list(fitted).index(7), 2] == np.ptp(
            x[7][keep[7]]) / 4.0

    def test_2d_rows_at_every_kept_count(self, monkeypatch):
        rng = np.random.default_rng(42)
        n = 5
        kept = np.arange(n * n + 1)
        grid = np.linspace(-4.0, 4.0, n)
        aa, bb = (np.tile(g.ravel(), (kept.size, 1)) + rng.normal(
            0.0, 0.1, (kept.size, n * n)) for g in np.meshgrid(
                grid, grid, indexing="ij"))
        v = gauss2d_model(np.column_stack([
            rng.uniform(0.5, 5.0, kept.size), rng.uniform(-2, 2, kept.size),
            rng.uniform(-2, 2, kept.size), rng.uniform(1.0, 4.0, kept.size),
            rng.uniform(0.5, 2.0, kept.size),
            rng.uniform(-1, 1, kept.size)]), aa, bb)
        v = v + rng.normal(0.0, 0.01, v.shape)
        aa[20], bb[20] = 2.0, -1.0                  # no coordinate span
        bb[22] = aa[22]                             # cells on one diagonal
        v[25] = 1.0                                 # nothing above the 5 %
        v[25, 3] = 0.0                              # percentile: the
        with_gaps(rng, [aa, bb, v], kept)           # fallback start
        starts = record_starts(monkeypatch)
        fits = _fit_stack(_GAUSS2D, [((aa, bb), v)])
        keep = np.isfinite(aa) & np.isfinite(bb) & np.isfinite(v)
        fitted = np.flatnonzero(kept >= 12)
        assert list(np.flatnonzero(fits.degenerate == "")) == list(fitted)
        want = np.array([oracle_moment_init_2d(aa[r][keep[r]], bb[r][keep[r]],
                                               v[r][keep[r]])
                         for r in fitted])
        np.testing.assert_array_equal(starts[0], want)
        # the fallback start and the clamped widths are among them
        assert want[list(fitted).index(25), 0] == 1.0
        assert want[list(fitted).index(20), 3] == 1e-3
        assert want[list(fitted).index(22), 4] == 1e-3

    def test_fallback_rows(self):
        """Rows the fits never start from (flat ones) follow the oracle too,
        and the zero totals they divide by raise no warning."""
        x = np.array([[0.0, 1, 2, 3, 4], [2, 2, 2, 2, 2], [-3, -1, 0, 4, 9],
                      [1, 1, 1, 1, 1]])
        y = np.array([[1.0, 1, 1, 1, 1],            # flat
                      [0, 0, 5, 0, 0],              # no coordinate span
                      [-5, -4, -9, -7, -6],         # all negative
                      [2, 2, 2, 2, 2]])             # flat, no span
        np.testing.assert_array_equal(
            fitting._start_1d(x, y),
            [oracle_moment_init_1d(a, b) for a, b in zip(x, y)])
        a = np.tile(np.arange(16.0) % 4, (4, 1))
        b = np.tile(np.arange(16.0) // 4, (4, 1))
        a[2], b[2] = 0.5, 0.5
        v = np.stack([np.full(16, 3.0), np.where(np.arange(16) == 5, 0.0, 1.0),
                      np.arange(16.0) - 20.0, np.full(16, 3.0)])
        v[3, 15] = 4.0                              # one hot cell
        np.testing.assert_array_equal(
            fitting._start_2d(a, b, v),
            [oracle_moment_init_2d(*row) for row in zip(a, b, v)])

    def test_reference_loop_stacks(self, monkeypatch):
        """The seed-103 loop at 2e6 frames: the 128 columns of the gauss1d
        stack, the 4 tables of gauss2d and the 4 profiles of peaks."""
        settings = load_config(REFERENCE_CFG)
        settings.update({"run.seed": 103, "run.frames": 2_000_000,
                         "correct.characterization_frames": 400_000})
        starts = record_starts(monkeypatch)
        study = run_pair_study(settings)
        want = {"gauss1d": [], "gauss2d": [], "peaks": []}
        arms = [(corr, build_mapping(settings, corr.mapping_mode))
                for corr in (study.corr_near, study.corr_far)]
        for i, axis in enumerate("xy"):
            for corr, mapping in arms:
                proj = project_axes(corr.values, corr.n_x, corr.n_y)[i]
                table = axis_table(corr, mapping, axis)
                retained = epr.conditionals_and_marginal(
                    table, settings["epr.min_column_fraction"])[2]
                for col in np.flatnonzero(retained):
                    keep = ~table.masked[:, col]
                    want["gauss1d"].append(oracle_moment_init_1d(
                        table.coords[keep], table.values[keep, col]))
                aa, bb = np.meshgrid(table.coords, table.coords,
                                     indexing="ij")
                keep = ~table.masked
                want["gauss2d"].append(oracle_moment_init_2d(
                    aa[keep], bb[keep], table.values[keep]))
                u, profile = epr._peak_profile(
                    proj, corr, mapping, settings["sensor.pixel_pitch_um"],
                    axis)
                keep = np.isfinite(profile)
                want["peaks"].append(oracle_moment_init_1d(u[keep],
                                                           profile[keep]))
        assert len(starts) == 3
        for got, (name, rows) in zip(starts, want.items()):
            np.testing.assert_array_equal(got, rows, err_msg=name)
        assert [len(rows) for rows in want.values()] == [128, 4, 4]
