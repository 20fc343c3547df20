import numpy as np
import pytest

from helpers import axis_table, oracle_damped_least_squares
from spadcorr import fitting
from spadcorr.errors import DegenerateInput
from spadcorr.fitting import (
    _fit_1d_stack,
    _fit_2d_stack,
    _moment_init_1d,
    _moment_init_2d,
    damped_least_squares,
    fit_gaussian_1d,
    fit_gaussian_2d,
    gauss1d_jacobian,
    gauss1d_model,
    gauss2d_jacobian,
    gauss2d_model,
)
from spadcorr.pipeline import correct_chain


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
        start = fun(p0)
        assert res.residual_norm[0] ** 2 <= start @ start

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

    Each column becomes the problem _fit_1d_stack builds for it in a stack
    of the table's columns: its dropped rows stay in the residual vector at
    weight 0. Returns (fun, jac, p0, alone) where alone(k) gives column k's
    (fun, jac) for the unstacked oracle.
    """
    x = np.asarray(x, dtype=float)
    ys = np.asarray(values, dtype=float).T
    w = np.asarray(keep, dtype=bool).T.astype(float)
    target = ys * w
    p0 = np.array([_moment_init_1d(x[u > 0], y[u > 0])
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
        np.testing.assert_allclose(res.residual_norm[k], want.residual_norm,
                                   rtol=1e-6)


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
        fits = _fit_1d_stack([(x, np.where(keep[:, k], values[:, k], np.nan))
                              for k in range(3)])
        assert isinstance(fits[1], DegenerateInput)
        assert isinstance(fits[2], DegenerateInput)
        for k in (1, 2):
            with pytest.raises(DegenerateInput):
                fit_gaussian_1d(x[keep[:, k]], values[keep[:, k], k])
        single = fit_gaussian_1d(x, values[:, 0])
        assert fits[0].converged and single.converged
        assert fits[0].params == pytest.approx(single.params, rel=1e-9)

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


def assert_same_fit(got, want, label):
    assert got.params == want.params, label
    assert (got.converged, got.iterations, got.residual_norm) \
        == (want.converged, want.iterations, want.residual_norm), label


def assert_fit_matches_oracle(fit, fun, jac, p0, label):
    """A packaged fit against the unstacked oracle on the same residuals."""
    want = oracle_damped_least_squares(fun, jac, p0)
    assert fit.converged == want.converged, label
    assert fit.iterations == want.iterations, label
    got = np.array(list(fit.params.values()))
    expect = want.params.copy()
    widths = [i for i, name in enumerate(fit.params)
              if name.startswith("sigma")]
    expect[widths] = np.abs(expect[widths])
    np.testing.assert_allclose(got, expect, rtol=1e-6, atol=1e-12,
                               err_msg=label)


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
        fits = _fit_1d_stack(list(zip(x, y)))
        assert [f.converged for f in (fits[0], fits[1], fits[3], fits[5])] \
            == [True] * 4
        assert not fits[2].converged and fits[2].iterations == 200
        assert isinstance(fits[4], DegenerateInput)
        with pytest.raises(DegenerateInput, match=str(fits[4])):
            fit_gaussian_1d(x[4], y[4])
        for k in (0, 1, 2, 5):
            assert_same_fit(fits[k], fit_gaussian_1d(x[k], y[k]), k)
        for k in (0, 1, 2, 3):
            keep = np.isfinite(y[k])
            w = keep.astype(float)
            target = np.where(keep, y[k], 0.0)
            assert_fit_matches_oracle(
                fits[k], lambda q: (gauss1d_model(q, x[k]) - target) * w,
                lambda q: gauss1d_jacobian(q, x[k]) * w[:, None],
                _moment_init_1d(x[k][keep], y[k][keep]), k)

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
        small = np.zeros(n + 4)     # 4 x 4 cells: too few
        tables = [(good, c, c, None), (clean, c, c, diagonal),
                  (other, wide, np.linspace(-3, 3, 16), None),
                  (flat, c, c, None), (small.reshape(4, 4), c[:4], c[:4],
                                       None),
                  (good.T, c, c, None)]
        real_solve = np.linalg.solve
        singular = []

        def solve(a, b):
            try:
                return real_solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(np.ndim(a))
                raise

        monkeypatch.setattr(np.linalg, "solve", solve)
        fits = _fit_2d_stack(tables)
        # the stack's solve failed and the singular problem fell back alone
        assert 3 in singular and 2 in singular
        for k in (3, 4):
            assert isinstance(fits[k], DegenerateInput)
            with pytest.raises(DegenerateInput, match=str(fits[k])):
                fit_gaussian_2d(*tables[k])
        for k in (0, 1, 2, 5):
            assert fits[k].converged, k
        for k in (0, 2, 5):
            assert_same_fit(fits[k], fit_gaussian_2d(*tables[k]), k)
        for k in (0, 1, 5):
            values, ca, cb, mask = tables[k]
            w = np.ones(n * n) if mask is None else (~mask).ravel() * 1.0
            a, b, v = aa.ravel(), bb.ravel(), values.ravel() * w
            keep = w > 0
            assert_fit_matches_oracle(
                fits[k], lambda q: (gauss2d_model(q, a, b) - v) * w,
                lambda q: gauss2d_jacobian(q, a, b) * w[:, None],
                _moment_init_2d(a[keep], b[keep], v[keep]), k)


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
            fits = _fit_1d_stack(
                [(table.coords, col) for col in
                 np.where(table.masked, np.nan, table.values).T])
            for b, fit in enumerate(fits):
                keep = ~table.masked[:, b]
                x, y = table.coords[keep], table.values[keep, b]
                want = oracle_damped_least_squares(
                    lambda p: gauss1d_model(p, x) - y,
                    lambda p: gauss1d_jacobian(p, x), _moment_init_1d(x, y))
                assert fit.converged == want.converged, (label, b)
                if want.converged:
                    assert fit.params["sigma"] == pytest.approx(
                        abs(want.params[2]), rel=1e-6), (label, b)
