"""Damped nonlinear least squares and the Gaussian peak models built on it.

The solver is a plain Levenberg-Marquardt loop with analytic Jacobians:
normal equations with a multiplicative damping term on the Hessian diagonal,
damping lowered on accepted steps and raised on rejected ones. Accepted
damped steps never increase the weighted residual norm. Convergence is
declared when the relative parameter step drops below 1e-10; the iteration
cap is 200, after which the best point so far is returned with
converged=False (callers that need a hard guarantee check the flag).

A converged problem then takes up to two undamped Gauss-Newton steps, each
only while it is below 1e-8 relative, so it ends at its optimum rather than
where the damping left it. These final steps are not cost-checked: so close
to the optimum the cost changes by less than its own rounding, and a check
would turn good steps away at random. The residual norm and covariance are
those of the returned point.

The solver runs a stack of K independent problems at once. Each problem
keeps its own state and follows exactly the path it would follow alone: its
own damping, its diagonal floor, up to 60 damped tries per iteration, the
give-up once its damping passes 1e14, its own iteration count and cap, and
its own step test. The stack only shares the numpy calls: every round
starts a new iteration (one Jacobian) for the problems whose last try was
accepted and makes one damped try for every problem still running, so a
problem that needs many tries holds up no other. A 1-D start vector is a
stack of one.

Both Gaussian models broadcast over a (K, n_params) stack of parameters
with one row of coordinates per problem, so the problems of a stack need
not share their coordinates. Every fit goes through one stacking rule
(_fit_stack): problems on the same number of points run as one stack; a
problem keeps its own points, a point that another problem of the stack
keeps enters it at zero weight, and a point that no problem keeps is
dropped. A stack of one therefore fits exactly its own points, and the
public fits (fit_gaussian_1d, fit_gaussian_1d_columns, fit_gaussian_2d)
are such stacks. A zero-weight point changes only the rounding of the
sums. Problems of different lengths are never padded to share a stack:
zeros appended to a residual vector change how BLAS blocks the sums, and a
fit on a noisy table moved by up to 1.5e-7 relative from it. The stacked
forms _fit_1d_stack, _fit_columns_stack and _fit_2d_stack serve
evaluate_epr, which fits each estimator's four tables together.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DegenerateInput

REL_STEP_TOL = 1e-10
MAX_ITERATIONS = 200
MAX_TRIES = 60
MAX_DAMPING = 1e14
FINAL_STEPS = 2
FINAL_STEP_TOL = 1e-8


@dataclasses.dataclass
class LMResult:
    """Solver outcome; stacked runs hold one entry per problem in each field.

    For a stack, params is (K, n_params), covariance (K, n_params,
    n_params), converged, iterations and residual_norm are length-K arrays
    and cost_history is one tuple per problem.

    cost_history holds the starting cost and that of every accepted damped
    step, so it never increases. residual_norm is taken at the returned
    point, after the final Gauss-Newton steps, which are not cost-checked;
    it can differ from sqrt(cost_history[-1]) by rounding.
    """

    params: np.ndarray
    covariance: np.ndarray
    converged: bool | np.ndarray
    iterations: int | np.ndarray
    residual_norm: float | np.ndarray
    cost_history: tuple

    def problem(self, k: int) -> "LMResult":
        """Result of problem k of a stacked run."""
        return LMResult(params=self.params[k], covariance=self.covariance[k],
                        converged=bool(self.converged[k]),
                        iterations=int(self.iterations[k]),
                        residual_norm=float(self.residual_norm[k]),
                        cost_history=self.cost_history[k])


def _rowdot(a, b):
    # per-row dot product through matmul, which rounds exactly as a 1-D
    # a @ b does, so a stack of one reproduces the unstacked arithmetic
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _solve(a, b):
    """Solve the stacked systems a x = b; b and x are (K, n)."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # one singular matrix fails the whole stack; the others keep the
        # solution they get alone
        out = np.empty_like(b)
        for k, (ak, bk) in enumerate(zip(a, b)):
            try:
                out[k] = np.linalg.solve(ak, bk)
            except np.linalg.LinAlgError:
                out[k] = np.linalg.lstsq(ak, bk, rcond=None)[0]
        return out


def damped_least_squares(fun, jac, p0, max_iter: int = MAX_ITERATIONS,
                         rel_step_tol: float = REL_STEP_TOL) -> LMResult:
    """Minimize 0.5 * ||fun(p)||^2 with analytic Jacobian jac(p).

    fun returns the residual vector (weights already folded in by the
    caller), jac its derivative with shape (n_residuals, n_params).
    The returned covariance is pinv(J^T J) at the solution, unscaled.

    A 2-D p0 of shape (K, n_params) is a stack of K independent problems.
    fun and jac are then called as fun(p, rows) and jac(p, rows): p holds
    the parameter rows of the problems whose stack indices are in rows, and
    the results are stacked the same way, (len(rows), n_residuals) and
    (len(rows), n_residuals, n_params).
    """
    p = np.array(p0, dtype=float)
    if p.ndim == 1:
        return damped_least_squares(
            lambda q, rows: np.asarray(fun(q[0]), dtype=float)[None],
            lambda q, rows: np.asarray(jac(q[0]), dtype=float)[None],
            p[None], max_iter, rel_step_tol).problem(0)
    n_stack, n_par = p.shape
    rows = np.arange(n_stack)
    r = np.asarray(fun(p, rows), dtype=float)
    cost = _rowdot(r, r)
    accepted = [(rows, cost)]       # (problems, cost) of each accepted try
    # final state per problem, written as each one stops
    params, final_cost = p.copy(), cost.copy()
    converged = np.zeros(n_stack, dtype=bool)
    iterations = np.zeros(n_stack, dtype=int)
    # state of the problems still running, compacted whenever some stop
    lam = np.full(n_stack, 1e-3)
    it = np.zeros(n_stack, dtype=int)
    tries = np.zeros(n_stack, dtype=int)
    fresh = np.ones(n_stack, dtype=bool)    # last try accepted: new iteration
    hess = np.zeros((n_stack, n_par, n_par))
    grad = np.zeros((n_stack, n_par))
    diag = np.zeros((n_stack, n_par))
    on_diag = np.arange(n_par)
    while max_iter >= 1 and rows.size:
        new = np.flatnonzero(fresh)
        if new.size:
            jmat = np.asarray(jac(p[new], rows[new]), dtype=float)
            jt = jmat.transpose(0, 2, 1)
            grad[new] = np.matmul(jt, r[new][..., None])[..., 0]
            h = hess[new] = np.matmul(jt, jmat)
            d = np.diagonal(h, axis1=1, axis2=2)
            floor = 1e-12 * np.maximum(d.max(axis=1), 1.0)[:, None]
            diag[new] = np.where(d < floor, floor, d)
            it += fresh
            tries[new] = 0
        a = hess.copy()
        a[:, on_diag, on_diag] += lam[:, None] * diag
        step = _solve(a, -grad)
        trial = p + step
        r_new = np.asarray(fun(trial, rows), dtype=float)
        cost_new = _rowdot(r_new, r_new)
        ok = np.isfinite(cost_new) & (cost_new <= cost)
        rel = np.sqrt(_rowdot(step, step)) / (np.sqrt(_rowdot(p, p)) + 1e-300)
        done = ok & (rel < rel_step_tol)
        p = np.where(ok[:, None], trial, p)
        r = np.where(ok[:, None], r_new, r)
        cost = np.where(ok, cost_new, cost)
        accepted.append((rows[ok], cost_new[ok]))
        lam = np.where(ok, np.maximum(lam / 3.0, 1e-12), lam * 10.0)
        tries += ~ok
        fresh = ok
        stop = np.where(ok, done | (it >= max_iter),
                        (lam > MAX_DAMPING) | (tries >= MAX_TRIES))
        if stop.any():
            idx = rows[stop]
            params[idx], final_cost[idx] = p[stop], cost[stop]
            converged[idx], iterations[idx] = done[stop], it[stop]
            go = ~stop
            rows, p, r, cost, lam, it, tries, fresh, hess, grad, diag = (
                v[go] for v in (rows, p, r, cost, lam, it, tries, fresh,
                                hess, grad, diag))

    # A short damped step does not mean the optimum is reached: finish each
    # converged problem with up to FINAL_STEPS undamped Gauss-Newton steps,
    # each taken only while it is below FINAL_STEP_TOL relative, so the
    # stopping point no longer depends on the damping path. The cost change
    # of such a step is below the rounding of the cost itself, so no cost
    # check is made: it would reject good steps at random.
    rows = np.flatnonzero(converged)
    p = params[rows]
    r = np.asarray(fun(p, rows), dtype=float) if rows.size else None
    for _ in range(FINAL_STEPS):
        if not rows.size:
            break
        jmat = np.asarray(jac(p, rows), dtype=float)
        jt = jmat.transpose(0, 2, 1)
        step = _solve(np.matmul(jt, jmat),
                      -np.matmul(jt, r[..., None])[..., 0])
        rel = np.sqrt(_rowdot(step, step)) / (np.sqrt(_rowdot(p, p)) + 1e-300)
        go = rel < FINAL_STEP_TOL
        if not go.any():
            break
        rows, p = rows[go], p[go] + step[go]
        r = np.asarray(fun(p, rows), dtype=float)
        params[rows], final_cost[rows] = p, _rowdot(r, r)

    jmat = np.asarray(jac(params, np.arange(n_stack)), dtype=float)
    cov = np.linalg.pinv(np.matmul(jmat.transpose(0, 2, 1), jmat))
    who, costs = (np.concatenate(c) for c in zip(*accepted))
    order = np.argsort(who, kind="stable")
    history = np.split(costs[order],
                       np.cumsum(np.bincount(who, minlength=n_stack))[:-1])
    return LMResult(params=params, covariance=cov, converged=converged,
                    iterations=iterations, residual_norm=np.sqrt(final_cost),
                    cost_history=tuple(tuple(h.tolist()) for h in history))


@dataclasses.dataclass
class GaussianFit:
    """Result of a Gaussian peak fit.

    params maps parameter names to fitted values; covariance rows/columns
    follow param_names order. converged=False means the best point reached
    within the iteration budget is reported.
    """

    params: dict[str, float]
    param_names: tuple[str, ...]
    covariance: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float

    def stderr(self, name: str) -> float:
        i = self.param_names.index(name)
        v = self.covariance[i, i]
        return math.sqrt(v) if v > 0 else 0.0


# --- 1D model: A exp(-(x-mu)^2 / 2 sigma^2) + c ------------------------------

_NAMES_1D = ("amplitude", "center", "sigma", "offset")


def _unstack(p):
    # one (1,)-shaped entry per parameter for a single vector, one (K, 1)
    # column per parameter for a (K, n_params) stack; both broadcast with x
    return np.asarray(p, dtype=float).T[..., None]


def gauss1d_model(p, x):
    """Model values at x; a (K, 4) stack of p gives (K, x.size) rows."""
    a, mu, sigma, c = _unstack(p)
    z = (x - mu) / sigma
    return a * np.exp(-0.5 * z * z) + c


def gauss1d_jacobian(p, x):
    """d model / d p with shape (x.size, 4), or (K, x.size, 4) for a stack."""
    a, mu, sigma, c = _unstack(p)
    z = (x - mu) / sigma
    e = np.exp(-0.5 * z * z)
    jac = np.empty(e.shape + (4,))
    jac[..., 0] = e
    jac[..., 1] = a * e * z / sigma
    jac[..., 2] = a * e * z * z / sigma
    jac[..., 3] = 1.0
    return jac


def _moment_init_1d(x, y):
    base = float(np.min(y))
    amp = float(np.max(y) - base)
    w = np.clip(y - base, 0.0, None)
    tot = w.sum()
    if tot <= 0 or amp <= 0:
        return np.array([max(amp, 1.0), float(np.mean(x)),
                         (x.max() - x.min()) / 4.0 or 1.0, base])
    mu = float((w * x).sum() / tot)
    var = float((w * (x - mu) ** 2).sum() / tot)
    sigma = math.sqrt(var) if var > 0 else (x.max() - x.min()) / 4.0
    if sigma <= 0:
        sigma = 1.0
    return np.array([amp, mu, sigma, base])


def _problem_1d(x, y, weights):
    """fit_gaussian_1d's input rules: the usable points, or DegenerateInput."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    keep = np.isfinite(x) & np.isfinite(y)
    if weights is not None:
        weights = np.asarray(weights, dtype=float).ravel()
        keep &= np.isfinite(weights) & (weights > 0)
    n_points = int(np.count_nonzero(keep))
    if n_points < 5:
        raise DegenerateInput(f"need at least 5 points, got {n_points}")
    if np.ptp(y[keep]) == 0:
        raise DegenerateInput("flat input has no peak to fit")
    return (x,), y[None], keep[None], weights


def fit_gaussian_1d(x, y, weights=None) -> GaussianFit:
    """Fit A exp(-(x-mu)^2/2sigma^2) + c to (x, y).

    weights are inverse variances when given (count-like data typically uses
    1/max(count, 1)); without weights the covariance is scaled by the reduced
    chi-square. Needs at least 5 points, else DegenerateInput.
    """
    return _fit_stack(_GAUSS1D, [_problem_1d(x, y, weights)])[0][0]


def _fit_1d_stack(problems) -> list:
    """fit_gaussian_1d over a list of unweighted (x, y), stacked.

    Returns one GaussianFit per problem, or the DegenerateInput that
    fit_gaussian_1d raises for it.
    """
    return _fit_each(_GAUSS1D, _problem_1d,
                     [(x, y, None) for x, y in problems])


def _column_block(x, values, keep):
    # fit_gaussian_1d_columns' problems: (number of columns, the columns
    # it can fit, their block); a column keeps its own rows and holds the
    # others of the table at zero weight
    x = np.asarray(x, dtype=float)
    ys = np.asarray(values, dtype=float).T
    use = np.asarray(keep, dtype=bool).T & np.isfinite(x) & np.isfinite(ys)
    rows = [k for k in range(ys.shape[0])
            if np.count_nonzero(use[k]) >= 5 and np.ptp(ys[k, use[k]]) != 0]
    return ys.shape[0], rows, ((x,), ys[rows], use[rows], None)


def fit_gaussian_1d_columns(x, values, keep) -> list:
    """Fit the 1D model to every column of a table in one stacked run.

    Column k is fitted to the rows where keep[:, k] holds, as
    fit_gaussian_1d(x[keep[:, k]], values[keep[:, k], k]) fits it: the other
    rows enter at zero weight, so only the rounding of the sums differs.
    Returns one GaussianFit per column, or None where fit_gaussian_1d raises
    DegenerateInput (fewer than 5 usable points, or a flat column).
    """
    return _fit_columns_stack([(x, values, keep)])[0]


def _fit_columns_stack(tables) -> list:
    """fit_gaussian_1d_columns over a list of (x, values, keep) tables.

    Every column of every table with the same number of rows goes into one
    stacked run. Returns one list of fits per table.
    """
    parts = [_column_block(*table) for table in tables]
    out = []
    for (n_cols, rows, _), fits in zip(
            parts, _fit_stack(_GAUSS1D, [block for _, _, block in parts])):
        table_fits = [None] * n_cols
        for k, fit in zip(rows, fits):
            table_fits[k] = fit
        out.append(table_fits)
    return out


# --- 2D model on the rotated +- frame ---------------------------------------
# A exp(-u+^2/2 s+^2 - u-^2/2 s-^2) + c, u+- = ((a-ca) +- (b-cb))/sqrt(2)

_NAMES_2D = ("amplitude", "center_a", "center_b", "sigma_plus",
             "sigma_minus", "offset")


def gauss2d_model(p, a, b):
    """Model values at (a, b); a (K, 6) stack of p gives one row per problem."""
    amp, ca, cb, sp, sm, c = _unstack(p)
    up = ((a - ca) + (b - cb)) / math.sqrt(2.0)
    um = ((a - ca) - (b - cb)) / math.sqrt(2.0)
    return amp * np.exp(-0.5 * (up / sp) ** 2 - 0.5 * (um / sm) ** 2) + c


def gauss2d_jacobian(p, a, b):
    """d model / d p with shape a.shape + (6,), stacked as gauss2d_model."""
    amp, ca, cb, sp, sm, c = _unstack(p)
    up = ((a - ca) + (b - cb)) / math.sqrt(2.0)
    um = ((a - ca) - (b - cb)) / math.sqrt(2.0)
    e = np.exp(-0.5 * (up / sp) ** 2 - 0.5 * (um / sm) ** 2)
    s2 = math.sqrt(2.0)
    jac = np.empty(e.shape + (6,))
    jac[..., 0] = e
    jac[..., 1] = amp * e * (up / sp ** 2 + um / sm ** 2) / s2
    jac[..., 2] = amp * e * (up / sp ** 2 - um / sm ** 2) / s2
    jac[..., 3] = amp * e * up * up / sp ** 3
    jac[..., 4] = amp * e * um * um / sm ** 3
    jac[..., 5] = 1.0
    return jac


def _moment_init_2d(a, b, v):
    base = float(np.percentile(v, 5.0))
    w = np.clip(v - base, 0.0, None)
    tot = w.sum()
    amp = float(v.max() - base)
    if tot <= 0 or amp <= 0:
        span = max(np.ptp(a), np.ptp(b), 1.0)
        return np.array([max(amp, 1.0), a.mean(), b.mean(),
                         span / 4, span / 4, base])
    ca = float((w * a).sum() / tot)
    cb = float((w * b).sum() / tot)
    va = float((w * (a - ca) ** 2).sum() / tot)
    vb = float((w * (b - cb) ** 2).sum() / tot)
    cab = float((w * (a - ca) * (b - cb)).sum() / tot)
    vp = max((va + vb) / 2 + cab, 1e-6)
    vm = max((va + vb) / 2 - cab, 1e-6)
    return np.array([amp, ca, cb, math.sqrt(vp), math.sqrt(vm), base])


def _problem_2d(values, coords_a, coords_b, mask, weights):
    """fit_gaussian_2d's input rules: the usable cells, or DegenerateInput."""
    values = np.asarray(values, dtype=float)
    aa, bb = np.meshgrid(np.asarray(coords_a, dtype=float),
                         np.asarray(coords_b, dtype=float), indexing="ij")
    keep = np.isfinite(values)
    if mask is not None:
        keep &= ~np.asarray(mask, dtype=bool)
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        keep &= np.isfinite(weights) & (weights > 0)
    n_cells = int(np.count_nonzero(keep))
    if n_cells < 12:
        raise DegenerateInput(f"need at least 12 unmasked cells, got {n_cells}")
    if np.ptp(values[keep]) == 0:
        raise DegenerateInput("flat table has no peak to fit")
    return ((aa.ravel(), bb.ravel()), values.reshape(1, -1),
            keep.reshape(1, -1), None if weights is None else weights.ravel())


def fit_gaussian_2d(values, coords_a, coords_b, mask=None,
                    weights=None) -> GaussianFit:
    """Fit the rotated-frame 2D Gaussian to a table of values.

    coords_a / coords_b are the physical coordinates of rows / columns;
    masked cells (mask True) are excluded from the residuals. Needs at least
    12 usable cells. sigma_plus / sigma_minus are the widths along the
    (a+b) and (a-b) diagonals (scaled by 1/sqrt(2)).
    """
    return _fit_stack(_GAUSS2D, [_problem_2d(values, coords_a, coords_b,
                                             mask, weights)])[0][0]


def _fit_2d_stack(tables) -> list:
    """fit_gaussian_2d over a list of unweighted (values, coords_a,
    coords_b, mask) tables, stacked.

    Returns one GaussianFit per table, or the DegenerateInput that
    fit_gaussian_2d raises for it.
    """
    return _fit_each(_GAUSS2D, _problem_2d,
                     [(*table, None) for table in tables])


# --- stacked fits -------------------------------------------------------------

# (model, jacobian, start point, parameter names, slots of the widths)
_GAUSS1D = (gauss1d_model, gauss1d_jacobian, _moment_init_1d, _NAMES_1D, (2,))
_GAUSS2D = (gauss2d_model, gauss2d_jacobian, _moment_init_2d, _NAMES_2D,
            (3, 4))


def _fit_each(model, make, problems) -> list:
    # make(*problem) builds a block of one problem or raises DegenerateInput;
    # one fit per problem, or that DegenerateInput in its place
    blocks = []
    for problem in problems:
        try:
            blocks.append(make(*problem))
        except DegenerateInput as exc:
            blocks.append(exc)
    fits = iter(_fit_stack(model, [b for b in blocks if isinstance(b, tuple)]))
    return [next(fits)[0] if isinstance(b, tuple) else b for b in blocks]


def _fit_stack(model, blocks) -> list:
    """Fit every problem of every block, one damped_least_squares run per
    number of points.

    A block is (coords, ys, keep, weights) for K problems on a common grid
    of m points: ys and keep are (K, m); the model's coordinate arrays and
    the inverse-variance weights (None: unweighted, covariance scaled by the
    reduced chi-square) broadcast to that shape. All problems on m points
    run as one stack. Problems are never padded to a common length: zeros
    appended to a residual vector change how BLAS blocks its sums, so the
    fit would depend on its neighbours in the stack. Returns one list of K
    fits per block.
    """
    out = [[] for _ in blocks]
    for width in sorted({block[1].shape[1] for block in blocks}):
        members = [k for k, block in enumerate(blocks)
                   if block[1].shape[1] == width]
        group = [blocks[k] for k in members]
        keep = np.concatenate([u for _, _, u, _ in group])
        if not keep.shape[0]:
            continue
        coords = [np.concatenate([np.broadcast_to(cs[i], ys.shape)
                                  for cs, ys, _, _ in group])
                  for i in range(len(group[0][0]))]
        ys = np.concatenate([ys for _, ys, _, _ in group])
        sw = np.concatenate([
            np.ones(ys.shape) if w is None
            else np.sqrt(np.where(u, w, 0.0)) for _, ys, u, w in group])
        scale_cov = np.concatenate([np.full(ys.shape[0], w is None)
                                    for _, ys, _, w in group])
        # a point a problem does not keep may hold anything: zero it
        fits = iter(_fit_rows(
            model, [np.where(keep | np.isfinite(c), c, 0.0) for c in coords],
            np.where(keep, ys, 0.0), keep, np.where(keep, sw, 0.0),
            scale_cov))
        for k in members:
            out[k] = [next(fits) for _ in range(blocks[k][1].shape[0])]
    return out


def _fit_rows(model, coords, ys, keep, sw, scale_cov) -> list:
    # One stacked run, one problem per row of ys: coords holds one (K, m)
    # array per model coordinate, sw the square-root weights, scale_cov a
    # flag per problem. A row keeps its own points; a point some other row
    # keeps enters it at zero weight; a point no row keeps is dropped, so a
    # stack of one fits exactly its own points.
    fn, jac, init, names, sigma_slots = model
    live = keep.any(axis=0)
    coords = [c[:, live] for c in coords]
    ys, keep, sw = ys[:, live], keep[:, live], sw[:, live]
    p0 = np.array([init(*(c[k, u] for c in coords), ys[k, u])
                   for k, u in enumerate(keep)])

    def fun(p, rows):
        return (fn(p, *(c[rows] for c in coords)) - ys[rows]) * sw[rows]

    def jacobian(p, rows):
        return jac(p, *(c[rows] for c in coords)) * sw[rows][..., None]

    res = damped_least_squares(fun, jacobian, p0)
    return [_package_fit(res.problem(k), names, sigma_slots,
                         n_points=int(np.count_nonzero(u)),
                         scale_cov=bool(scale))
            for k, (u, scale) in enumerate(zip(keep, scale_cov))]


def _package_fit(res: LMResult, names, sigma_slots, n_points,
                 scale_cov) -> GaussianFit:
    p = res.params.copy()
    for i in sigma_slots:
        p[i] = abs(p[i])
    cov = res.covariance
    dof = n_points - p.size
    if scale_cov and dof > 0:
        cov = cov * (res.residual_norm ** 2 / dof)
    return GaussianFit(params=dict(zip(names, p.tolist())),
                       param_names=tuple(names), covariance=cov,
                       converged=res.converged, iterations=res.iterations,
                       residual_norm=res.residual_norm)
