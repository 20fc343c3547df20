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

Every Gaussian fit is a row of points, one coordinate array per model
coordinate and one of values; a point whose value or coordinate is NaN is
left out (evaluate_epr passes masked cells and bins as NaN). _fit_stack
fits blocks of rows and returns one entry per row, in input order. Rows of
one length run as one damped_least_squares stack, in which a row's
residual is (model - y) * 1.0 on the points it keeps and * 0.0 on the
others, and a point that no row keeps is dropped; so a stack of one, as
fit_gaussian_1d/2d run, fits exactly its own points. Rows of different
lengths are never padded to share a stack: zeros appended to a residual
vector change how BLAS blocks the sums, and a fit on a noisy table moved by
up to 1.5e-7 relative from it. For the same reason each start point is a
moment of its row's kept points only: the rows that keep the same number
of points are compacted into one stack, whose row reductions round
exactly as one row's do.

There are no weights and no covariance: no pipeline caller uses them, and
the uncertainty of a variance product is to come from resampling blocks of
frames, not from fit covariances.
"""

from __future__ import annotations

import collections
import dataclasses
import math

import numpy as np

from .errors import DegenerateInput, NotConverged

REL_STEP_TOL = 1e-10
MAX_ITERATIONS = 200
MAX_TRIES = 60
MAX_DAMPING = 1e14
FINAL_STEPS = 2
FINAL_STEP_TOL = 1e-8


@dataclasses.dataclass
class LMResult:
    """Outcome of a stacked solve: one entry per problem in each field.

    params is (K, n_params); converged and iterations are length-K arrays.
    """

    params: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray


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
    params = p.copy()
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
            params[idx] = p[stop]
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
        params[rows] = p

    return LMResult(params=params, converged=converged,
                    iterations=iterations)


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


def _start_1d(x, y):
    # (K, 4) moment start points of K rows of kept points; a row with
    # nothing above its minimum starts at its mean and a quarter span
    base = y.min(axis=1)
    amp = y.max(axis=1) - base
    w = np.clip(y - base[:, None], 0.0, None)
    tot = w.sum(axis=1)
    quarter = (x.max(axis=1) - x.min(axis=1)) / 4.0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = (w * x).sum(axis=1) / tot
        var = (w * (x - mu[:, None]) ** 2).sum(axis=1) / tot
        sigma = np.where(var > 0, np.sqrt(var), quarter)
    peaked = np.column_stack([amp, mu, np.where(sigma <= 0, 1.0, sigma), base])
    flat = np.column_stack([np.maximum(amp, 1.0), x.mean(axis=1),
                            np.where(quarter == 0, 1.0, quarter), base])
    return np.where(((tot <= 0) | (amp <= 0))[:, None], flat, peaked)


def fit_gaussian_1d(x, y) -> GaussianFit:
    """Fit A exp(-(x-mu)^2/2sigma^2) + c to (x, y).

    Points where x or y is NaN are left out. Needs at least 5 points, else
    DegenerateInput.
    """
    return _gaussian_fit(_GAUSS1D, (np.ravel(x),), np.ravel(y)[None])


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


def _start_2d(a, b, v):
    # (K, 6) moment start points above each row's 5th percentile; a row
    # with nothing above it starts at its means, widths a quarter span
    base = np.percentile(v, 5.0, axis=1)
    w = np.clip(v - base[:, None], 0.0, None)
    tot = w.sum(axis=1)
    amp = v.max(axis=1) - base
    span = np.maximum(np.maximum(np.ptp(a, axis=1), np.ptp(b, axis=1)), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ca = (w * a).sum(axis=1) / tot
        cb = (w * b).sum(axis=1) / tot
        da, db = a - ca[:, None], b - cb[:, None]
        half = ((w * da ** 2).sum(axis=1) / tot
                + (w * db ** 2).sum(axis=1) / tot) / 2
        cab = (w * da * db).sum(axis=1) / tot
        peaked = np.column_stack([
            amp, ca, cb, np.sqrt(np.maximum(half + cab, 1e-6)),
            np.sqrt(np.maximum(half - cab, 1e-6)), base])
    flat = np.column_stack([np.maximum(amp, 1.0), a.mean(axis=1),
                            b.mean(axis=1), span / 4, span / 4, base])
    return np.where(((tot <= 0) | (amp <= 0))[:, None], flat, peaked)


def fit_gaussian_2d(values, coords_a, coords_b, mask=None) -> GaussianFit:
    """Fit the rotated-frame 2D Gaussian to a table of values.

    coords_a / coords_b are the physical coordinates of rows / columns;
    masked cells (mask True) and NaN cells are left out. Needs at least 12
    usable cells. sigma_plus / sigma_minus are the widths along the (a+b)
    and (a-b) diagonals (scaled by 1/sqrt(2)).
    """
    if mask is not None:
        values = np.where(mask, np.nan, values)
    return _gaussian_fit(_GAUSS2D, (np.asarray(coords_a)[:, None], coords_b),
                         np.asarray(values)[None])


# --- stacked fits -------------------------------------------------------------

# a model as _fit_stack runs it: the slots of its widths (reported as
# |sigma|) and the DegenerateInput messages of a row with too few points
# or a flat one
_Model = collections.namedtuple(
    "_Model", "fn jac start names widths min_points too_few flat")
_GAUSS1D = _Model(gauss1d_model, gauss1d_jacobian, _start_1d, _NAMES_1D, [2],
                  5, "need at least 5 points, got {}",
                  "flat input has no peak to fit")
_GAUSS2D = _Model(gauss2d_model, gauss2d_jacobian, _start_2d, _NAMES_2D,
                  [3, 4], 12, "need at least 12 unmasked cells, got {}",
                  "flat table has no peak to fit")


@dataclasses.dataclass
class _Fits(LMResult):
    """LMResult of stacked rows, in input order, with the widths as |sigma|.

    degenerate holds a row's DegenerateInput message, or "" if it was
    fitted; a degenerate row has NaN params and converged False.
    """

    degenerate: np.ndarray

    def errors(self, what) -> list:
        """Per row, None if it converged, else the DegenerateInput or
        NotConverged that its failure names; none of them is raised."""
        return [None if ok else DegenerateInput(reason) if reason
                else NotConverged(f"{what} did not converge")
                for ok, reason in zip(self.converged, self.degenerate)]


def _fit_stack(model, blocks) -> _Fits:
    """Fit every row of every block, one damped_least_squares run per length.

    A block is (coords, values): values holds one row per entry of its
    leading axis and coords one array per model coordinate, broadcast
    against values; the rest of a row's shape is flattened into points.
    """
    rows = [[v.reshape(len(v), -1) for v in np.broadcast_arrays(
        *(np.asarray(u, dtype=float) for u in (*coords, values)))]
        for coords, values in blocks]
    sizes = [len(r[-1]) for r in rows]
    n = sum(sizes)
    at = np.split(np.arange(n), np.cumsum(sizes)[:-1])
    fits = _Fits(np.full((n, len(model.names)), np.nan),
                 np.zeros(n, dtype=bool), np.zeros(n, dtype=int),
                 np.full(n, "", dtype=object))
    for m in sorted({r[-1].shape[1] for r in rows}):
        group = [i for i, r in enumerate(rows) if r[-1].shape[1] == m]
        *coords, y = map(np.concatenate, zip(*(rows[i] for i in group)))
        _fit_length(model, coords, y, fits,
                    np.concatenate([at[i] for i in group]))
    return fits


def _fit_length(model, coords, y, fits, at):
    # Fits the rows of one length into fits' rows at. A point that a row
    # leaves out is zeroed, enters that row's residual times 0.0, and is
    # dropped when no row keeps it.
    keep = np.isfinite(y)
    for c in coords:
        keep &= np.isfinite(c)
    n_kept = np.count_nonzero(keep, axis=1)
    few = n_kept < model.min_points
    top = np.max(np.where(keep, y, -np.inf), axis=1, initial=-np.inf)
    flat = ~few & (top == np.min(np.where(keep, y, np.inf), axis=1,
                                 initial=np.inf))
    fits.degenerate[at[few]] = [model.too_few.format(k) for k in n_kept[few]]
    fits.degenerate[at[flat]] = model.flat
    ok = ~(few | flat)
    if not ok.any():
        return
    at, keep, n_kept = at[ok], keep[ok], n_kept[ok]
    live = keep.any(axis=0)
    coords = [np.where(np.isfinite(c), c, 0.0)[ok][:, live] for c in coords]
    y = np.where(keep, y[ok], 0.0)[:, live]
    keep = keep[:, live]
    w = keep * 1.0
    p0 = np.empty((at.size, len(model.names)))
    for k in np.unique(n_kept):
        same = n_kept == k
        p0[same] = model.start(*(v[same][keep[same]].reshape(-1, k)
                                 for v in (*coords, y)))

    def fun(p, rows):
        return (model.fn(p, *(c[rows] for c in coords)) - y[rows]) * w[rows]

    def jac(p, rows):
        return model.jac(p, *(c[rows] for c in coords)) * w[rows][..., None]

    res = damped_least_squares(fun, jac, p0)
    res.params[:, model.widths] = np.abs(res.params[:, model.widths])
    fits.params[at], fits.converged[at] = res.params, res.converged
    fits.iterations[at] = res.iterations


def _gaussian_fit(model, coords, values) -> GaussianFit:
    # fit_gaussian_1d/2d: one row, fitted alone and named
    fits = _fit_stack(model, [(coords, values)])
    if fits.degenerate[0]:
        raise DegenerateInput(fits.degenerate[0])
    return GaussianFit(params=dict(zip(model.names, fits.params[0].tolist())),
                       converged=bool(fits.converged[0]),
                       iterations=int(fits.iterations[0]))
