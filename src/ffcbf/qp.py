"""Small dense strictly convex QP solver for the safety-filter control laws.

Solves   min 1/2 ||u - u0||^2   s.t.  coeff_r . u >= lb_r  (rows),  lo <= u <= hi

with a primal active-set method.  The identity Hessian makes every subproblem
a Euclidean projection: the equality-constrained step is u0 + G_W^T lambda
with (G_W G_W^T) lambda = b_W - G_W u0, solved with np.linalg.solve (least
squares when the Gram matrix is singular).  Rows are normalized internally so
the result is invariant to row scaling.

The box-clipped target is returned as is when it satisfies every row (the
common control tick).  Otherwise a feasible starting point is taken from (in
order) the warm-started working set, the projection onto the most violated
rows, or a phase-1 minimum-slack LP, solved by the dense simplex in
linprog(); the problem is declared infeasible when the minimum slack exceeds
1e-7.  The package needs only numpy at run time.

Problems here are tiny (a handful of variables, tens of rows), and one is
built and solved on every control tick, so the fixed cost of each numpy call
dominates: QpProblem stacks and checks its rows in a few vectorized calls,
and solve() reads small vectors through tolist() rather than by numpy scalar
indexing.  Every matrix product and linear solve stays a numpy call: a dot
product written in Python would round differently from BLAS.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["QpProblem", "QpSolution", "solve", "verify_kkt"]

FEAS_TOL = 1e-8        # row feasibility, absolute + relative in the bound
DUAL_TOL = 1e-9        # multipliers may be this negative at the optimum
PHASE1_TOL = 1e-7      # min slack above this means infeasible
MAX_ITER = 200
LP_MAX_PIVOTS = 500    # phase-1 simplex pivots before RuntimeError
_STEP_EPS = 1e-12
_NORM_EPS = 1e-13
_LP_COST_TOL = 1e-11   # reduced costs above -this are optimal
_LP_PIVOT_TOL = 1e-11  # smallest pivot element
_LP_TIE_RTOL = 1e-12   # relative tolerance of ratio-test ties


def linprog(G: np.ndarray, b: np.ndarray):
    """Phase-1 minimum-slack LP: min s s.t. G u + s >= b, s >= 0.  Returns (u, s).

    A dense tableau simplex in standard form over x = (u+, u-, s, e) >= 0 with
    G u+ - G u- + s - e = b (u = u+ - u-, one surplus e per row).  The
    starting basis, s in the most violated row and the surplus of every other
    row, is feasible by construction, so no artificial phase is needed.
    Entering and leaving variables follow Bland's lowest-index rule, which
    cannot cycle on degenerate vertices.  The returned s is the largest row
    violation at the returned u.
    """
    m, dim = G.shape
    if m == 0 or b.max() <= 0.0:  # u = 0 satisfies every row
        return np.zeros(dim), 0.0
    s_col, n = 2 * dim, 2 * dim + 1 + m
    # Rows negated so that the surpluses form a basis (infeasible where b > 0);
    # one pivot then puts s in the most violated row and makes it feasible.
    # The last row holds the reduced costs of min s, then minus its value.
    T = np.zeros((m + 1, n + 1))
    T[:m, :dim] = -G
    T[:m, dim:s_col] = G
    T[:m, s_col] = -1.0
    T[:m, s_col + 1:n] = np.eye(m)
    T[:m, n] = -b
    T[m, s_col] = 1.0
    basis = np.arange(s_col + 1, n)
    _pivot(T, basis, int(b.argmax()), s_col)
    _simplex(T, basis)
    x = np.zeros(n)
    x[basis] = T[:m, n]
    u = x[:dim] - x[dim:s_col]
    return u, max(0.0, float((b - G @ u).max()))


def _simplex(T: np.ndarray, basis: np.ndarray) -> None:
    """Pivot the tableau T (constraint rows, then the reduced-cost row; the
    right-hand side last) from a feasible basis to an optimum, in place, by
    Bland's rule.  Raises RuntimeError after LP_MAX_PIVOTS pivots."""
    m, n = basis.size, T.shape[1] - 1
    for pivots in range(LP_MAX_PIVOTS + 1):
        entering = (T[m, :n] < -_LP_COST_TOL).nonzero()[0]
        if entering.size == 0:
            return
        if pivots == LP_MAX_PIVOTS:
            raise RuntimeError(f"phase-1 LP failed: no optimum after {pivots} pivots")
        j = entering[0]
        col = T[:m, j]
        rows = (col > _LP_PIVOT_TOL).nonzero()[0]
        if rows.size == 0:  # min s is bounded below by 0: only roundoff gets here
            raise RuntimeError("phase-1 LP failed: unbounded direction")
        ratios = T[rows, n] / col[rows]
        ties = rows[ratios <= ratios.min() * (1.0 + _LP_TIE_RTOL)]
        _pivot(T, basis, ties[basis[ties].argmin()], j)


def _pivot(T: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    """Gauss-Jordan pivot on T[r, j]: variable j enters the basis in row r."""
    pivot_row = T[r] / T[r, j]
    T -= T[:, j, None] * pivot_row
    T[r] = pivot_row
    basis[r] = j
    np.maximum(T[:-1, -1], 0.0, out=T[:-1, -1])  # clamp roundoff below zero


@functools.cache
def _box_block(dim: int) -> np.ndarray:
    """Read-only [I; -I] rows of the box bounds (+0.0 off the diagonal)."""
    block = np.zeros((2 * dim, dim))
    idx = np.arange(dim)
    block[idx, idx] = 1.0
    block[dim + idx, idx] = -1.0
    block.flags.writeable = False
    return block


@dataclass(frozen=True)
class QpProblem:
    """1/2 ||u - target||^2 under rows coeff.u >= lower_bound and box bounds.

    rows is a sequence of (coeffs, lower_bound) with coeffs any length-dim
    sequence; box is (lower, upper) sequences or None for an unbounded
    variable vector.  Every input is validated: non-finite values, wrong
    shapes and lower > upper raise ValueError.
    """

    dim: int
    target: np.ndarray
    rows: tuple = ()
    box: tuple | None = None

    def __post_init__(self) -> None:
        # Built on every control tick: the rows are stacked with one array
        # call and every input is checked for finiteness in one pass.
        dim = self.dim
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        target = np.asarray(self.target, dtype=float)
        if target.shape != (dim,):
            raise ValueError(f"target shape {target.shape} != ({dim},)")
        rows = tuple(self.rows)
        if rows:
            try:
                G = np.array([c for c, _ in rows], dtype=float)
                b = np.array([lb for _, lb in rows], dtype=float)
            except ValueError as exc:  # ragged or non-numeric rows
                raise ValueError(f"malformed rows: {exc}") from None
            if G.shape != (len(rows), dim) or b.ndim != 1:
                raise ValueError(f"row shape {G.shape[1:]} != ({dim},)")
        else:
            G, b = np.zeros((0, dim)), np.zeros(0)
        box = self.box
        if box is not None:
            try:
                box = np.array(box, dtype=float)
            except ValueError:  # bounds of different lengths
                box = None
            if box is None or box.shape != (2, dim):
                raise ValueError("box shape mismatch")
            lo, hi = box
            # Box bounds are appended as rows: lower bounds, then upper.
            G = np.concatenate((G, _box_block(dim)))
            b = np.concatenate((b, lo, -hi))
        norms = np.linalg.norm(G, axis=1)
        # A NaN or inf in any input shows in target, b or the row norms (so
        # does a finite row whose norm overflows, which passes the exact check).
        if not np.isfinite(np.concatenate((target, b, norms))).all():
            if not np.isfinite(target).all():
                raise ValueError("non-finite target")
            if box is not None and not np.isfinite(box).all():
                raise ValueError("non-finite box")
            if not (np.isfinite(G).all() and np.isfinite(b).all()):
                raise ValueError("non-finite row")
        if box is not None and (lo > hi).any():
            raise ValueError("box lower > upper")
        # Internal normalized row system, used by every step of solve().
        degenerate = norms <= _NORM_EPS
        scale = np.where(degenerate, 1.0, norms)
        b = b / scale
        set_field = object.__setattr__
        set_field(self, "target", target)
        set_field(self, "rows", rows)
        set_field(self, "box", None if box is None else (lo, hi))
        set_field(self, "_G", G / scale[:, None])
        set_field(self, "_b", b)
        set_field(self, "_tol", FEAS_TOL * (1.0 + np.abs(b)))
        set_field(self, "_degenerate", degenerate)


@dataclass(frozen=True)
class QpSolution:
    """Outcome of solve().

    active_set indexes internal rows: the user's rows first, then box lower
    bounds (one per variable), then box upper bounds.  Pass it back as
    warm_start on the next, similarly-structured problem.  iteration_limited
    marks problems abandoned at the iteration cap (reported infeasible but
    logged distinctly from certified infeasibility).
    """

    status: str                      # "optimal" | "infeasible"
    u: np.ndarray | None
    active_set: tuple = ()
    kkt_residual: float = float("nan")
    iterations: int = 0
    iteration_limited: bool = False
    phase1_slack: float = field(default=float("nan"))


def _feas_margin(problem: QpProblem, u: np.ndarray) -> float:
    """Most-violated row margin (negative means infeasible) with mixed tolerance."""
    return float((problem._G @ u - problem._b + problem._tol).min())


def _eqp(G: np.ndarray, b: np.ndarray, u0: np.ndarray, work: list):
    """Projection of u0 onto the working-set equalities; returns (x, lambda)."""
    if not work:
        return u0.copy(), np.zeros(0)
    Gw = G[work]
    rhs = b[work] - Gw @ u0
    gram = Gw @ Gw.T
    try:
        lam = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        lam = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    return u0 + Gw.T @ lam, lam


def solve(problem: QpProblem, warm_start=None) -> QpSolution:
    """Solve the QP; never raises on infeasibility (reported in the status)."""
    G, b = problem._G, problem._b
    m = G.shape[0]
    u0 = problem.target

    # Rows with ~zero coefficients are vacuous or certify infeasibility outright.
    degenerate = problem._degenerate
    if degenerate.any():
        b_deg = b[degenerate]
        if (b_deg > FEAS_TOL).any():
            return QpSolution(status="infeasible", u=None, phase1_slack=float(b_deg.max()))

    # Fast path: if the box-clipped target satisfies every row it is already
    # the projection (the box projection lower-bounds any subset's), which is
    # the typical no-conflict control tick.  The clip and the active box
    # bounds are taken in one float pass (same comparisons as np.clip).
    active = []
    if problem.box is not None:
        n_user = len(problem.rows)
        dim = problem.dim
        clipped = u0.tolist()
        for i, (ui, lo, hi) in enumerate(zip(clipped, *(bound.tolist() for bound in problem.box))):
            if ui < lo:
                active.append(n_user + i)
            elif ui > hi:
                active.append(n_user + dim + i)
            ui = ui if ui > lo else lo
            clipped[i] = ui if ui < hi else hi
        uc = np.array(clipped)
    else:
        uc = u0
    if m == 0:
        return QpSolution(status="optimal", u=uc, active_set=tuple(active), kkt_residual=0.0)
    slack = G @ uc - b
    if (slack + problem._tol).min() >= 0.0:
        primal = float(max(0.0, -slack.min(initial=-0.0)))
        return QpSolution(
            status="optimal", u=uc, active_set=tuple(active),
            kkt_residual=primal, iterations=0,
        )

    phase1_slack = float("nan")
    u = None
    work: list = []
    start = None  # projection onto the starting working set, reused by iteration 1

    if warm_start:
        cand = [int(r) for r in warm_start if 0 <= int(r) < m]
        if cand:
            start = _eqp(G, b, u0, cand)
            if _feas_margin(problem, start[0]) >= 0.0:
                u, work = start[0], list(cand)
    if u is None:
        # project onto the most violated rows before paying for the LP
        order = np.argsort(slack)[: problem.dim].tolist()
        slack_list = slack.tolist()
        cand = [r for r in order if slack_list[r] < 0.0]
        if cand:
            start = _eqp(G, b, u0, cand)
            if _feas_margin(problem, start[0]) >= 0.0:
                u, work = start[0], cand
    if u is None:
        start = None
        x, phase1_slack = linprog(G, b)
        if phase1_slack > PHASE1_TOL:
            return QpSolution(status="infeasible", u=None, phase1_slack=phase1_slack)
        u = x

    b_list = b.tolist()
    lam = np.zeros(0)
    iterations = 0
    optimal = False
    for iterations in range(1, MAX_ITER + 1):
        if start is None:
            x, lam = _eqp(G, b, u0, work)
        else:  # work is still the starting set: its projection is known
            (x, lam), start = start, None
        d = x - u
        if np.abs(d).max(initial=0.0) <= 1e-11 * (1.0 + np.abs(u).max()):
            if lam.size == 0 or lam.min() >= -DUAL_TOL:
                u = x
                optimal = True
                break
            # drop the most negative multiplier; ties to the lowest row index
            limit = lam.min() + 1e-15
            drop = min(k for k, lk in enumerate(lam.tolist()) if lk <= limit)
            work.pop(drop)
            continue
        t = 1.0
        blocker = -1
        for r, gd_r in enumerate((G @ d).tolist()):
            if gd_r >= -_STEP_EPS or r in work:
                continue
            tr = (b_list[r] - G[r] @ u) / gd_r
            if tr < 0.0:
                tr = 0.0
            if tr < t - 1e-15:
                t = tr
                blocker = r
        u = u + t * d
        if blocker >= 0:
            work.append(blocker)
        elif t >= 1.0:
            # full unblocked step: next pass runs the dual check at x
            u = x

    if not optimal:
        return QpSolution(
            status="infeasible",
            u=None,
            iterations=iterations,
            iteration_limited=True,
            phase1_slack=phase1_slack,
        )

    # KKT residual from the final working-set multipliers.
    order = np.argsort(work)
    active = tuple(work[k] for k in order)
    lam_sorted = lam[order] if lam.size else lam
    if active:
        Ga = G[list(active)]
        stationarity = float(np.abs(u - u0 - Ga.T @ lam_sorted).max())
        dual = float(max(0.0, -lam_sorted.min()))
        comp = float(np.abs(lam_sorted * (Ga @ u - b[list(active)])).max())
    else:
        stationarity = float(np.abs(u - u0).max(initial=0.0))
        dual = comp = 0.0
    primal = float(max(0.0, (b - G @ u).max()))
    return QpSolution(
        status="optimal",
        u=u,
        active_set=active,
        kkt_residual=max(stationarity, primal, dual, comp),
        iterations=iterations,
        phase1_slack=phase1_slack,
    )


def verify_kkt(problem: QpProblem, u, active_set=()) -> float:
    """Max KKT violation (stationarity, primal, dual, complementarity) at u."""
    G, b, u0 = problem._G, problem._b, problem.target
    u = np.asarray(u, dtype=float)
    act = list(active_set)
    if act:
        Ga = G[act]
        lam = np.linalg.lstsq(Ga.T, u - u0, rcond=None)[0]
        stationarity = float(np.max(np.abs(u - u0 - Ga.T @ lam)))
        dual = float(max(0.0, -np.min(lam)))
        comp = float(np.max(np.abs(lam * (Ga @ u - b[act]))))
    else:
        stationarity = float(np.max(np.abs(u - u0), initial=0.0))
        dual = 0.0
        comp = 0.0
    primal = 0.0
    if G.shape[0]:
        primal = float(max(0.0, np.max(b - G @ u)))
    return max(stationarity, primal, dual, comp)
