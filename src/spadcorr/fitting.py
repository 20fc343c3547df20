"""Damped nonlinear least squares and the Gaussian peak models built on it.

The solver is a plain Levenberg-Marquardt loop with analytic Jacobians:
normal equations with a multiplicative damping term on the Hessian diagonal,
damping lowered on accepted steps and raised on rejected ones. Accepted
damped steps never increase the residual norm. Convergence is declared
when the relative parameter step drops below 1e-10; the iteration cap is
200, after which the best point so far is returned with converged=False
(callers that need a hard guarantee check the flag).

A converged problem then takes up to two undamped Gauss-Newton steps, each
only while it is below 1e-8 relative, so it ends at its optimum rather than
where the damping left it. These final steps are not cost-checked: so close
to the optimum the cost changes by less than its own rounding, and a check
would turn good steps away at random. The residual norm is that of the
returned point.

The solver runs a stack of K independent problems at once. Each problem
keeps its own state and follows exactly the path it would follow alone: its
own damping, its diagonal floor, up to 60 damped tries per iteration, the
give-up once its damping passes 1e14, its own iteration count and cap, and
its own step test. The stack only shares the numpy calls: every round
starts a new iteration (one Jacobian) for the problems whose last try was
accepted and makes one damped try for every problem still running, so a
problem that needs many tries holds up no other.

Every Gaussian fit has one problem form: a row (coords, y, keep) of m
points, one coordinate array per model coordinate, where keep drops every
point whose value is not finite (in 1-D, whose coordinate too). NaN means
"left out": evaluate_epr passes a masked cell or bin as NaN, and
fit_gaussian_2d's mask drops cells the same way. _problem_1d and
_problem_2d build the row or raise DegenerateInput. Every fit goes through one stacking rule
(_fit_each): the rows of the same length run as one damped_least_squares
stack, in which a row's residual is (model - y) * 1.0 on the points it
keeps and * 0.0 on the others, and a point that no row keeps is dropped.
A stack of one therefore fits exactly its own points; fit_gaussian_1d and
fit_gaussian_2d are such stacks, and _fit_1d_stack and _fit_2d_stack
serve evaluate_epr, which fits each estimator's four tables together.
Rows of different lengths are never padded to share a stack: zeros
appended to a residual vector change how BLAS blocks the sums, and a fit on
a noisy table moved by up to 1.5e-7 relative from it.

There are no weights and no covariance: no pipeline caller uses them, and
the uncertainty of a variance product is to come from resampling blocks of
frames, not from fit covariances.
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
    """Outcome of a stacked solve: one entry per problem in each field.

    params is (K, n_params); converged, iterations and residual_norm are
    length-K arrays. residual_norm is taken at the returned point, after the
    final Gauss-Newton steps.
    """

    params: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    residual_norm: np.ndarray


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


def damped_least_squares(fun, jac, p0) -> LMResult:
    """Minimize 0.5 * ||fun(p)||^2 for a stack of K independent problems.

    p0 of shape (K, n_params) holds one start point per problem. fun and jac
    are called as fun(p, rows) and jac(p, rows): p holds the parameter rows
    of the problems whose stack indices are in rows, and the results are
    stacked the same way, the residuals (len(rows), n_residuals) and their
    analytic Jacobian (len(rows), n_residuals, n_params).
    """
    p = np.array(p0, dtype=float)
    n_stack, n_par = p.shape
    rows = np.arange(n_stack)
    r = np.asarray(fun(p, rows), dtype=float)
    cost = _rowdot(r, r)
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
    while rows.size:
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
        done = ok & (rel < REL_STEP_TOL)
        p = np.where(ok[:, None], trial, p)
        r = np.where(ok[:, None], r_new, r)
        cost = np.where(ok, cost_new, cost)
        lam = np.where(ok, np.maximum(lam / 3.0, 1e-12), lam * 10.0)
        tries += ~ok
        fresh = ok
        stop = np.where(ok, done | (it >= MAX_ITERATIONS),
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

    return LMResult(params=params, converged=converged,
                    iterations=iterations, residual_norm=np.sqrt(final_cost))


@dataclasses.dataclass
class GaussianFit:
    """Result of a Gaussian peak fit.

    params maps parameter names to fitted values, in the model's parameter
    order. converged=False means the best point reached within the
    iteration budget is reported.
    """

    params: dict[str, float]
    converged: bool
    iterations: int
    residual_norm: float


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


def _problem_1d(x, y):
    """fit_gaussian_1d's problem row, or DegenerateInput."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    keep = np.isfinite(x) & np.isfinite(y)
    n_points = int(np.count_nonzero(keep))
    if n_points < 5:
        raise DegenerateInput(f"need at least 5 points, got {n_points}")
    if np.ptp(y[keep]) == 0:
        raise DegenerateInput("flat input has no peak to fit")
    return (x,), y, keep


def fit_gaussian_1d(x, y) -> GaussianFit:
    """Fit A exp(-(x-mu)^2/2sigma^2) + c to (x, y).

    Points where x or y is NaN are left out. Needs at least 5 points, else
    DegenerateInput.
    """
    return _fitted(_fit_1d_stack([(x, y)])[0])


def _fit_1d_stack(problems) -> list:
    """fit_gaussian_1d over a list of (x, y), stacked.

    Returns one GaussianFit per problem, or the DegenerateInput that
    fit_gaussian_1d raises for it.
    """
    return _fit_each(_GAUSS1D, _problem_1d, problems)


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


def _problem_2d(values, coords_a, coords_b, mask=None):
    """fit_gaussian_2d's problem row, or DegenerateInput."""
    values = np.asarray(values, dtype=float)
    aa, bb = np.meshgrid(np.asarray(coords_a, dtype=float),
                         np.asarray(coords_b, dtype=float), indexing="ij")
    keep = np.isfinite(values)
    if mask is not None:
        keep &= ~np.asarray(mask, dtype=bool)
    n_cells = int(np.count_nonzero(keep))
    if n_cells < 12:
        raise DegenerateInput(f"need at least 12 unmasked cells, got {n_cells}")
    if np.ptp(values[keep]) == 0:
        raise DegenerateInput("flat table has no peak to fit")
    return (aa.ravel(), bb.ravel()), values.ravel(), keep.ravel()


def fit_gaussian_2d(values, coords_a, coords_b, mask=None) -> GaussianFit:
    """Fit the rotated-frame 2D Gaussian to a table of values.

    coords_a / coords_b are the physical coordinates of rows / columns;
    masked cells (mask True) and NaN cells are left out. Needs at least 12
    usable cells. sigma_plus / sigma_minus are the widths along the (a+b)
    and (a-b) diagonals (scaled by 1/sqrt(2)).
    """
    return _fitted(_fit_2d_stack([(values, coords_a, coords_b, mask)])[0])


def _fit_2d_stack(tables) -> list:
    """fit_gaussian_2d over a list of (values, coords_a, coords_b, mask)
    tables, stacked.

    Returns one GaussianFit per table, or the DegenerateInput that
    fit_gaussian_2d raises for it.
    """
    return _fit_each(_GAUSS2D, _problem_2d, tables)


# --- stacked fits -------------------------------------------------------------

# (model, jacobian, start point, parameter names, slots of the widths)
_GAUSS1D = (gauss1d_model, gauss1d_jacobian, _moment_init_1d, _NAMES_1D, [2])
_GAUSS2D = (gauss2d_model, gauss2d_jacobian, _moment_init_2d, _NAMES_2D,
            [3, 4])


def _fitted(fit):
    # a fit of a stack, or raise the DegenerateInput that stands in for it
    if isinstance(fit, DegenerateInput):
        raise fit
    return fit


def _fit_each(model, make, problems) -> list:
    """Fit every problem, one damped_least_squares stack per length.

    make(*problem) builds the problem's row (coords, y, keep) or raises
    DegenerateInput. Returns one GaussianFit per problem, or that
    DegenerateInput in its place.
    """
    out = []
    for problem in problems:
        try:
            out.append(make(*problem))
        except DegenerateInput as exc:
            out.append(exc)
    rows = {k: row for k, row in enumerate(out) if isinstance(row, tuple)}
    for m in sorted({row[1].size for row in rows.values()}):
        members = [k for k, row in rows.items() if row[1].size == m]
        for k, fit in zip(members, _fit_rows(model,
                                             [rows[k] for k in members])):
            out[k] = fit
    return out


def _fit_rows(model, stack) -> list:
    # One stacked run over rows of a common length. A point that a row
    # does not keep may hold anything: it is zeroed, enters that row's
    # residual times 0.0, and is dropped when no row keeps it.
    fn, jac, init, names, sigma_slots = model
    coords, ys, keep = zip(*stack)
    keep = np.array(keep)
    live = keep.any(axis=0)
    coords = [np.where(keep | np.isfinite(c), c, 0.0)[:, live]
              for c in map(np.array, zip(*coords))]
    ys = np.where(keep, np.array(ys), 0.0)[:, live]
    keep = keep[:, live]
    w = keep * 1.0
    p0 = np.array([init(*(c[k, u] for c in coords), ys[k, u])
                   for k, u in enumerate(keep)])

    def fun(p, rows):
        return (fn(p, *(c[rows] for c in coords)) - ys[rows]) * w[rows]

    def jacobian(p, rows):
        return jac(p, *(c[rows] for c in coords)) * w[rows][..., None]

    res = damped_least_squares(fun, jacobian, p0)
    params = res.params.copy()
    params[:, sigma_slots] = np.abs(params[:, sigma_slots])
    return [GaussianFit(params=dict(zip(names, p.tolist())),
                        converged=bool(c), iterations=int(i),
                        residual_norm=float(r))
            for p, c, i, r in zip(params, res.converged, res.iterations,
                                  res.residual_norm)]
