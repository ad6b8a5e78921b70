"""Small dense strictly convex QP solver for the safety-filter control laws.

Solves   min 1/2 ||u - u0||^2   s.t.  coeff_r . u >= lb_r  (rows),  lo <= u <= hi

with a primal active-set method.  The identity Hessian makes every subproblem
a Euclidean projection: the equality-constrained step is u0 + G_W^T lambda
with (G_W G_W^T) lambda = b_W - G_W u0.  Rows are normalized internally so
the result is invariant to row scaling.

The box-clipped target is returned as is when it satisfies every row (the
common control tick).  Otherwise a feasible starting point is taken from (in
order) the warm-started working set, the projection onto the most violated
rows (ties to the lowest row index), or a phase-1 minimum-slack LP, solved by
the dense simplex in linprog(); the problem is declared infeasible when the
minimum slack exceeds 1e-7.  A step stops at the first blocking row; at a
stationary point the most negative multiplier leaves the working set (ties
to the earliest entry).  The package needs only numpy at run time.

Problems here are tiny (a handful of variables, tens of rows) and one is
built and solved on every control tick, where the fixed cost of a numpy call
exceeds the arithmetic it does.  So the kernel works in plain Python floats:
QpProblem normalizes its rows once into float lists (squared norms summed in
numpy's pairwise order, so they equal the np.linalg.norm scaling bit for
bit); box bounds stay bounds, read coordinate by coordinate instead of as
[I; -I] rows (a box row that enters the working set is expanded to +-e_i
there); dot products accumulate left to right from 0.0; and the working-set
Gram system is solved in closed form up to two rows and by partial-pivot
elimination above that.  numpy only holds the public target, box and
solution arrays, solves a singular Gram system (np.linalg.lstsq) and runs
the rare phase-1 LP.  Everything else is IEEE arithmetic in a fixed order,
so it gives the same bits on any machine, whatever BLAS numpy uses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, le, sub

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
_PAIRWISE_BLOCK = 128  # numpy's pairwise-summation block length
_UNROLL_MAX = 32       # longest vector given straight-line kernels


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


def _pairwise_sum(a: list) -> float:
    """Sum of a in the order of numpy's pairwise summation (np.add.reduce)."""
    n = len(a)
    if n < 8:
        res = 0.0
        for x in a:
            res += x
        return res
    if n <= _PAIRWISE_BLOCK:
        r = a[:8]
        i, stop = 8, n - n % 8
        while i < stop:
            r = [rj + aj for rj, aj in zip(r, a[i:i + 8])]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[i:]:
            res += x
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])


def _floats(c) -> list:
    return [float(x) for x in c]


def _dot(g, v) -> float:
    s = 0.0
    for a, x in zip(g, v):
        s += a * x
    return s


def _scaled(c, s) -> list:
    return [x / s for x in c]


@functools.cache
def _kernels(n: int):
    """(floats, dot, scaled) for length-n vectors:

        floats(c)    = [float(c[0]), ..., float(c[n-1])]
        dot(g, v)    = 0.0 + g[0] * v[0] + ... + g[n-1] * v[n-1], left to right
        scaled(c, s) = [c[0] / s, ..., c[n-1] / s]

    Up to _UNROLL_MAX entries they are generated as straight-line code: on a
    handful of floats a loop spends most of its time iterating, and the
    unrolled form does the same operations in the same order without it.
    """
    if n > _UNROLL_MAX:
        return _floats, _dot, _scaled
    idx = range(n)
    return eval(
        "(lambda c: [" + ", ".join(f"float(c[{i}])" for i in idx) + "], "
        "lambda g, v: 0.0" + "".join(f" + g[{i}] * v[{i}]" for i in idx) + ", "
        "lambda c, s: [" + ", ".join(f"c[{i}] / s" for i in idx) + "])",
        {"float": float},
    )


@dataclass(frozen=True)
class QpProblem:
    """1/2 ||u - target||^2 under rows coeff.u >= lower_bound and box bounds.

    rows is a sequence of (coeffs, lower_bound) with coeffs any length-dim
    sequence; box is (lower, upper) sequences or None for an unbounded
    variable vector.  Every input is validated: non-finite values, wrong
    shapes and lower > upper raise ValueError.

    Internal rows are indexed as in QpSolution.active_set: the user's rows
    (normalized, _G and _b), then the box lower bounds (_lo), then the upper
    bounds (_hi); _tol holds the feasibility tolerance of each.
    """

    dim: int
    target: np.ndarray
    rows: tuple = ()
    box: tuple | None = None

    def __post_init__(self) -> None:
        # Built on every control tick: one pass over the rows converts,
        # normalizes and sums them into one finiteness check.
        dim = self.dim
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        target = np.asarray(self.target, dtype=float)
        if target.shape != (dim,):
            raise ValueError(f"target shape {target.shape} != ({dim},)")
        u0 = target.tolist()
        floats, dot, scaled = _kernels(dim)
        rows = tuple(self.rows)
        G, b, degenerate = [], [], []
        # A NaN or inf in any input makes check non-finite (so does an
        # overflow of finite values, which the exact checks below let pass).
        check = sum(u0)
        try:
            for coeffs, lb in rows:
                if len(coeffs) != dim:
                    raise ValueError(f"row length {len(coeffs)} != {dim}")
                c = floats(coeffs)
                lb = float(lb)
                sq = dot(c, c) if dim < 8 else _pairwise_sum([x * x for x in c])
                check += sq
                check += lb
                norm = math.sqrt(sq)
                if norm <= _NORM_EPS:
                    degenerate.append(len(b))
                    G.append(c)
                    b.append(lb)
                else:
                    G.append(scaled(c, norm))
                    b.append(lb / norm)
        except (TypeError, ValueError) as exc:  # ragged, scalar or non-numeric rows
            raise ValueError(f"malformed rows: {exc}") from None
        lo = hi = None
        if self.box is not None:
            try:
                lo, hi = self.box
                if len(lo) != dim or len(hi) != dim:
                    raise ValueError
                lo, hi = floats(lo), floats(hi)
            except (TypeError, ValueError):
                raise ValueError("box shape mismatch") from None
            check += sum(lo) + sum(hi)
        if not math.isfinite(check):
            if not all(map(math.isfinite, u0)):
                raise ValueError("non-finite target")
            if lo is not None and not all(map(math.isfinite, lo + hi)):
                raise ValueError("non-finite box")
            for coeffs, lb in rows:
                if not all(map(math.isfinite, map(float, (*coeffs, lb)))):
                    raise ValueError("non-finite row")
        tol = [FEAS_TOL * (1.0 + abs(x)) for x in b]
        if lo is not None:
            if any(map(float.__gt__, lo, hi)):
                raise ValueError("box lower > upper")
            tol += [FEAS_TOL * (1.0 + abs(x)) for x in lo + hi]
        set_field = object.__setattr__
        set_field(self, "target", target)
        set_field(self, "rows", rows)
        set_field(self, "box", None if lo is None else (np.array(lo), np.array(hi)))
        set_field(self, "_u0", u0)
        set_field(self, "_G", G)
        set_field(self, "_b", b)
        set_field(self, "_lo", lo)
        set_field(self, "_hi", hi)
        set_field(self, "_tol", tol)
        set_field(self, "_degenerate", tuple(degenerate))
        set_field(self, "_dot", dot)

    def _vector(self, r: int) -> list:
        """Normalized coefficients of internal row r (a box row is +-e_i)."""
        n = len(self._b)
        if r < n:
            return self._G[r]
        e = [0.0] * self.dim
        i = r - n
        if i < self.dim:
            e[i] = 1.0
        else:
            e[i - self.dim] = -1.0
        return e

    def _bound(self, r: int) -> float:
        """Normalized lower bound of internal row r."""
        n = len(self._b)
        if r < n:
            return self._b[r]
        i = r - n
        return self._lo[i] if i < self.dim else -self._hi[i - self.dim]

    def _stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, b) of every internal row as arrays, for the phase-1 LP."""
        m = len(self._tol)
        G = np.array([self._vector(r) for r in range(m)], dtype=float).reshape(m, self.dim)
        return G, np.array([self._bound(r) for r in range(m)], dtype=float)


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


def _residuals(problem: QpProblem, u: list) -> list:
    """g_r . u - b_r of every internal row (user rows, box lower, box upper)."""
    res = list(map(sub, map(problem._dot, problem._G, repeat(u)), problem._b))
    if problem._lo is not None:
        res += map(sub, u, problem._lo)
        res += map(sub, problem._hi, u)
    return res


def _gram_solve(rows: list, rhs: list, dot) -> list:
    """lambda with (G_W G_W^T) lambda = rhs for the working rows G_W.

    Closed form for one and two rows (the 2x2 LU factorization with partial
    pivoting), elimination with partial pivoting above that; least squares
    (np.linalg.lstsq) when a pivot is exactly zero, as np.linalg.solve raises
    there.
    """
    k = len(rows)
    if k == 1:
        g = dot(rows[0], rows[0])
        if g != 0.0:
            return [rhs[0] / g]
        gram = [[g]]
    elif k == 2:
        # LU with partial pivoting written out (Cramer's rule is not backward
        # stable: on nearly parallel rows x would miss the working rows).
        g0, g1 = rows
        a, c, d = dot(g0, g0), dot(g0, g1), dot(g1, g1)
        r0, r1 = rhs
        if abs(c) > abs(a):  # the second row leads
            f = a / c
            pivot = c - f * d
            if pivot != 0.0:
                lam1 = (r0 - f * r1) / pivot
                return [(r1 - d * lam1) / c, lam1]
        elif a != 0.0:
            f = c / a
            pivot = d - f * c
            if pivot != 0.0:
                lam1 = (r1 - f * r0) / pivot
                return [(r0 - c * lam1) / a, lam1]
        gram = [[a, c], [c, d]]
    else:
        gram = [[0.0] * k for _ in range(k)]
        for i, gi in enumerate(rows):
            for j in range(i, k):
                gram[i][j] = gram[j][i] = dot(gi, rows[j])
        lam = _eliminate(gram, rhs)
        if lam is not None:
            return lam
    return np.linalg.lstsq(np.array(gram), np.array(rhs), rcond=None)[0].tolist()


def _eliminate(A: list, rhs: list) -> list | None:
    """Solve A x = rhs by Gaussian elimination with partial pivoting (the
    first largest pivot, as in LAPACK); None on an exactly zero pivot."""
    k = len(rhs)
    M = [row + [r] for row, r in zip(A, rhs)]
    for col in range(k):
        piv = max(range(col, k), key=lambda i: abs(M[i][col]))
        if M[piv][col] == 0.0:
            return None
        M[col], M[piv] = M[piv], M[col]
        prow = M[col]
        for row in M[col + 1:]:
            f = row[col] / prow[col]
            for j in range(col + 1, k + 1):
                row[j] -= f * prow[j]
    x = [0.0] * k
    for i in range(k - 1, -1, -1):
        row = M[i]
        s = row[k]
        for j in range(i + 1, k):
            s -= row[j] * x[j]
        x[i] = s / row[i]
    return x


def _eqp(problem: QpProblem, work: list) -> tuple[list, list]:
    """Projection of the target onto the working-set equalities; returns (x, lambda)."""
    u0 = problem._u0
    if not work:
        return list(u0), []
    dot = problem._dot
    rows = [problem._vector(r) for r in work]
    rhs = [problem._bound(r) - dot(g, u0) for r, g in zip(work, rows)]
    lam = _gram_solve(rows, rhs, dot)
    dot_k = _kernels(len(work))[1]
    return [ui + dot_k(col, lam) for ui, col in zip(u0, zip(*rows))], lam


def _kkt_residual(problem: QpProblem, u: list, active, lam: list, res=None) -> float:
    """Max KKT violation (stationarity, primal, dual, complementarity) at u,
    with multipliers lam on the internal rows active; res, when given, is
    _residuals(problem, u)."""
    if res is None:
        res = _residuals(problem, u)
    primal = max(0.0, -min(res)) if res else 0.0
    if active:
        rows = [problem._vector(r) for r in active]
        dot_k = _kernels(len(active))[1]
        step = [dot_k(col, lam) for col in zip(*rows)]
        dual = max(0.0, -min(lam))
        comp = max(abs(lk * res[r]) for lk, r in zip(lam, active))
    else:
        step = [0.0] * problem.dim
        dual = comp = 0.0
    stationarity = max(abs(ui - u0i - s) for ui, u0i, s in zip(u, problem._u0, step))
    return max(stationarity, primal, dual, comp)


def solve(problem: QpProblem, warm_start=None) -> QpSolution:
    """Solve the QP; never raises on infeasibility (reported in the status)."""
    G, b, tol = problem._G, problem._b, problem._tol
    lo, hi = problem._lo, problem._hi
    dim, n_user, m = problem.dim, len(b), len(tol)
    u0, dot = problem._u0, problem._dot

    # Rows with ~zero coefficients are vacuous or certify infeasibility outright.
    if problem._degenerate:
        worst = max(b[r] for r in problem._degenerate)
        if worst > FEAS_TOL:
            return QpSolution(status="infeasible", u=None, phase1_slack=worst)

    # Fast path: if the box-clipped target satisfies every row it is already
    # the projection (the box projection lower-bounds any subset's), which is
    # the typical no-conflict control tick.  A target outside the box is
    # clipped, and its active box bounds noted, in one pass (same comparisons
    # as np.clip).
    active = []
    if lo is None or (all(map(le, lo, u0)) and all(map(le, u0, hi))):
        uc = u0
    else:
        uc = []
        for i, (ui, lo_i, hi_i) in enumerate(zip(u0, lo, hi)):
            if ui < lo_i:
                active.append(n_user + i)
            elif ui > hi_i:
                active.append(n_user + dim + i)
            ui = ui if ui > lo_i else lo_i
            uc.append(ui if ui < hi_i else hi_i)
    # The clipped target meets every box row, so only the user rows are checked.
    slack = list(map(sub, map(dot, G, repeat(uc)), b))
    if min(map(add, slack, tol), default=0.0) >= 0.0:
        return QpSolution(
            status="optimal", u=np.array(uc), active_set=tuple(active),
            kkt_residual=max(0.0, -min(slack)) if slack else 0.0,
        )

    phase1_slack = float("nan")
    u = None
    work: list = []
    start = None    # projection onto the starting working set, reused by iteration 1
    checked = None  # (point, its _residuals) of the last feasibility check

    candidates = []
    if warm_start:
        cand = [int(r) for r in warm_start if 0 <= int(r) < m]
        if cand:
            candidates.append(cand)
    # then the most violated rows, before paying for the LP
    candidates.append(sorted((r for r, s in enumerate(slack) if s < 0.0),
                             key=slack.__getitem__)[:dim])
    for cand in candidates:
        start = _eqp(problem, cand)
        checked = (start[0], _residuals(problem, start[0]))
        if min(map(add, checked[1], tol)) >= 0.0:
            u, work = start[0], cand
            break
    if u is None:
        start = None
        x, phase1_slack = linprog(*problem._stacked())
        if phase1_slack > PHASE1_TOL:
            return QpSolution(status="infeasible", u=None, phase1_slack=phase1_slack)
        u = x.tolist()

    lam: list = []
    iterations = 0
    optimal = False
    for iterations in range(1, MAX_ITER + 1):
        if start is None:
            x, lam = _eqp(problem, work)
        else:  # work is still the starting set: its projection is known
            (x, lam), start = start, None
        d = [xi - ui for xi, ui in zip(x, u)]
        if max(map(abs, d)) <= 1e-11 * (1.0 + max(map(abs, u))):
            if not lam or min(lam) >= -DUAL_TOL:
                u = x
                optimal = True
                break
            # drop the most negative multiplier; ties to the earliest entry
            limit = min(lam) + 1e-15
            work.pop(next(k for k, lk in enumerate(lam) if lk <= limit))
            continue
        # longest step along d before a row outside the working set blocks it
        t = 1.0
        blocker = -1
        rates = [dot(g, d) for g in G]
        if lo is not None:
            rates += d
            rates += [-di for di in d]
        for r, rate in enumerate(rates):
            if rate >= -_STEP_EPS or r in work:
                continue
            if r < n_user:
                gap = b[r] - dot(G[r], u)
            elif r < n_user + dim:
                gap = lo[r - n_user] - u[r - n_user]
            else:
                gap = u[r - n_user - dim] - hi[r - n_user - dim]
            tr = gap / rate
            if tr < 0.0:
                tr = 0.0
            if tr < t - 1e-15:
                t = tr
                blocker = r
        u = [ui + t * di for ui, di in zip(u, d)]
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

    order = sorted(range(len(work)), key=work.__getitem__)
    active = tuple(work[k] for k in order)
    lam = [lam[k] for k in order]
    # a solve that ends on its starting point has its residuals already
    res = checked[1] if checked is not None and checked[0] is u else None
    return QpSolution(
        status="optimal",
        u=np.array(u),
        active_set=active,
        kkt_residual=_kkt_residual(problem, u, active, lam, res),
        iterations=iterations,
        phase1_slack=phase1_slack,
    )


def verify_kkt(problem: QpProblem, u, active_set=()) -> float:
    """Max KKT violation (stationarity, primal, dual, complementarity) at u,
    with least-squares multipliers on the rows active_set."""
    u = np.asarray(u, dtype=float)
    active = list(active_set)
    lam = []
    if active:
        Ga = np.array([problem._vector(r) for r in active])
        lam = np.linalg.lstsq(Ga.T, u - problem.target, rcond=None)[0].tolist()
    return _kkt_residual(problem, u.tolist(), active, lam)
