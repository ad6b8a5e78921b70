"""Small dense strictly convex QP solver for the safety-filter control laws.

Solves   min 1/2 ||u - u0||^2   s.t.  coeff_r . u >= lb_r  (rows),  lo <= u <= hi

with the dual active-set method of Goldfarb and Idnani ("A numerically
stable dual method for solving strictly convex quadratic programs", Math.
Programming 27, 1983) for the identity Hessian.  Rows are normalized
internally so the result is invariant to row scaling.

The iterate x is the projection of the target onto the equalities of an
active set A of linearly independent rows, with multipliers lambda >= 0;
rows outside A may be violated.  Each step takes the most violated row p
(ties to the lowest row index) and splits its normal as g_p = G_A^T r + z,
z orthogonal to A.  x moves along z and the active multipliers by -r per
unit of lambda_p; p enters A when it meets its bound, unless an active
multiplier reaches 0 first: that row leaves and the step repeats.  If g_p
is in the span of A (z = 0) only the multipliers move, and if no r_j is then
positive, r is a Farkas certificate of infeasibility: every u meeting the
active rows with r_j < 0 has g_p . u <= g_p . x < b_p.  Those rows and p
are the infeasible verdict's active_set, so a caller learns which rows
conflict at no extra cost.  The span test counts |z| up to 1e-6 as 0, so
the bound holds up to z . (u - x): strictly, the rows admit no point within
(b_p - g_p . x) / |z| of x, a radius the controllers' boxes lie far inside.
The dual objective never decreases and no active set recurs, so degenerate
vertices cannot make it cycle.  The answer is the projection onto the final
A, recomputed.

The first iterate is the box-clipped target with its clipped bounds active
(multipliers: the clip distances); when it meets every row it is the
answer, the common control tick.  A warm start replaces it with the
projection onto the warm rows, skipping rows in the span of those kept and
dropping the most negative multiplier until none is negative: a poor warm
start costs steps, never correctness.

Problems here are tiny (a handful of variables, tens of rows) and one is
built and solved on every control tick, where the fixed cost of a numpy call
exceeds the arithmetic it does.  So the module imports no numpy: the problem
and the kernel are plain Python numbers.  The target is a float tuple and
the box a pair of float tuples; row numbers are read as given, so the answer
is a tuple of Python floats when the rows hold Python floats, as the
controllers' do.  QpProblem takes each row as its nonzero (index, coeff)
pairs and a lower bound, the form the controllers build on every tick: a
barrier row couples at most two vehicles.  One routine validates the rows
and normalizes them into lists, with each squared norm summed from 0.0 left
to right; a coefficient left out is +0.0, so a row gives the same bits
whether its +0.0 entries are listed or not.  Box bounds stay bounds, read
coordinate by coordinate (a box row that enters A is expanded to +-e_i
there); a box's bound tuples and tolerances are computed once and kept in a
small cache, as the controllers pass the same box every tick.  Dot products
accumulate left to right from 0.0, and G_A^T = Q R is kept factored by
modified Gram-Schmidt, extended as a row enters and redone from a row that
leaves, so the same bits come out on any machine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from operator import add, le, mul, sub

__all__ = ["QpProblem", "QpSolution", "solve"]

FEAS_TOL = 1e-8        # row feasibility, absolute + relative in the bound
DUAL_TOL = 1e-9        # multipliers may be this negative at the optimum
MAX_ITER = 200
_DEP_TOL = 1e-12       # squared norm of a unit row's part outside the active span
_REFINE_TOL = 1e-10    # |lambda_r * miss_r| of an active row that calls for refinement
_NORM_EPS = 1e-13
_UNROLL_MAX = 32       # longest vector given straight-line kernels


# ffcbf_bench/tracing.py hooks this name, so traced runs keep working with
# qp.phase1.* at 0; ROADMAP item 4 step 1 removes the line.
linprog = None


def _floats(c) -> tuple:
    return tuple(float(x) for x in c)


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

        floats(c)    = (float(c[0]), ..., float(c[n-1]))
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
        "(lambda c: (" + ", ".join(f"float(c[{i}])" for i in idx) + ",), "
        "lambda g, v: 0.0" + "".join(f" + g[{i}] * v[{i}]" for i in idx) + ", "
        "lambda c, s: [" + ", ".join(f"c[{i}] / s" for i in idx) + "])",
        {"float": float},
    )


def _normalize(dim: int, rows) -> tuple:
    """(G, b, degenerate, check) of rows (((index, coeff), ...), lower_bound).

    Each row is scaled by its norm, or kept as given (and its index recorded
    in degenerate) when the norm is below _NORM_EPS.  The squared norm is
    summed from 0.0 left to right over the listed entries, so listing a +0.0
    entry or leaving it out gives the same bits.  check is the sum of every
    squared norm and bound: non-finite if any value is.  Indices out of
    order or range, and rows in another form such as dense (coeffs,
    lower_bound), raise TypeError or ValueError.
    """
    scaled = _kernels(dim)[2]
    G, b, degenerate = [], [], []
    check = 0.0
    for pairs, lb in rows:
        row = [0.0] * dim
        sq, last = 0.0, -1
        for i, c in pairs:
            if not last < i < dim:
                raise ValueError(f"row indices {[i for i, _ in pairs]} not increasing in [0, {dim})")
            row[i] = c
            sq += c * c
            last = i
        check += sq
        check += lb
        norm = math.sqrt(sq)
        if norm <= _NORM_EPS:
            degenerate.append(len(b))
            G.append(row)
            b.append(lb)
        else:
            G.append(scaled(row, norm))
            b.append(lb / norm)
    return G, b, degenerate, check


def _box_terms(lo: tuple, hi: tuple) -> tuple:
    """((lo, hi), tolerances) of a validated box, as float tuples."""
    lo, hi = tuple(map(float, lo)), tuple(map(float, hi))
    if not all(map(math.isfinite, lo + hi)):
        raise ValueError("non-finite box")
    if any(map(float.__gt__, lo, hi)):
        raise ValueError("box lower > upper")
    return (lo, hi), tuple(FEAS_TOL * (1.0 + abs(x)) for x in lo + hi)


# Controllers pass the same box on every tick.  Keys compare by value, and
# -0.0 == 0.0, so a box with a zero bound bypasses the cache to keep its sign.
_cached_box_terms = functools.lru_cache(maxsize=64)(_box_terms)


@dataclass(frozen=True)
class QpProblem:
    """1/2 ||u - target||^2 under rows coeff.u >= lower_bound and box bounds.

    target is any length-dim sequence of numbers; rows is a sequence of
    (((index, coeff), ...), lower_bound), each row's nonzero coefficients
    with strictly increasing indices in [0, dim) (a speed row has one, a
    pair row two); box is (lower, upper) sequences or None for an unbounded
    variable vector.  Every input is validated: non-finite values, wrong
    lengths, nested or non-numeric entries, row indices out of range or out
    of order, rows in any other form and lower > upper raise ValueError.
    The constructed problem holds rows as a tuple, target as a float tuple
    and box as a pair of float tuples, the form the solver reads.  Row
    numbers are read as given, not converted: pass Python floats, as the
    controllers do, for an answer of Python floats.

    Internal rows are indexed as in QpSolution.active_set: the user's rows
    (normalized by _normalize, _G and _b), then the box lower bounds, then
    the upper bounds; _tol holds the feasibility tolerance of each.  A box's
    bounds and tolerances are computed once and cached.
    """

    dim: int
    target: tuple
    rows: tuple = ()
    box: tuple | None = None

    def __post_init__(self) -> None:
        # Built on every control tick: one pass over the rows normalizes them
        # and sums them into one finiteness check.
        dim = self.dim
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        floats, dot, _ = _kernels(dim)
        try:
            if len(self.target) != dim:
                raise ValueError(f"length {len(self.target)} != {dim}")
            target = floats(self.target)
        except (TypeError, ValueError) as exc:  # scalar, nested or non-numeric
            raise ValueError(f"malformed target: {exc}") from None
        try:
            rows = tuple(self.rows)
            G, b, degenerate, check = _normalize(dim, rows)
        except (TypeError, ValueError) as exc:  # dense, unnested or non-numeric rows
            raise ValueError(f"malformed rows: {exc}") from None
        # A NaN or inf in any input makes check non-finite (so does an
        # overflow of finite values, which the exact checks below let pass).
        check += sum(target)
        if not math.isfinite(check):
            if not all(map(math.isfinite, target)):
                raise ValueError("non-finite target")
            for pairs, lb in rows:
                if not all(map(math.isfinite, (*(c for _, c in pairs), lb))):
                    raise ValueError("non-finite row")
        tol = [FEAS_TOL * (1.0 + abs(x)) for x in b]
        box = None
        if self.box is not None:
            try:
                lo, hi = self.box
                if len(lo) != dim or len(hi) != dim:
                    raise ValueError("box shape mismatch")
                lo, hi = tuple(lo), tuple(hi)
                terms = _box_terms if 0.0 in lo or 0.0 in hi else _cached_box_terms
                box, box_tol = terms(lo, hi)
            except TypeError:  # scalar, unhashable or non-numeric bounds
                raise ValueError("malformed box") from None
            tol += box_tol
        # frozen: the fields are set through the instance dict, in one call
        vars(self).update(
            target=target, rows=rows, box=box, _G=G, _b=b, _tol=tol,
            _degenerate=tuple(degenerate), _dot=dot)

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
        lo, hi = self.box
        return lo[i] if i < self.dim else -hi[i - self.dim]


@dataclass(frozen=True)
class QpSolution:
    """Outcome of solve().

    active_set indexes internal rows: the user's rows first, then box lower
    bounds (one per variable), then box upper bounds.  At an optimum it is
    the dual method's final active set, in row order; pass it back as
    warm_start on the next, similarly-structured problem.  iterations counts
    the dual steps after the first iterate, each of which either adds the
    violated row or drops a blocking one: 0 means the clipped target or the
    warm-start projection was already optimal.  iteration_limited marks
    problems abandoned at the iteration cap (reported infeasible, and logged
    distinctly from certified infeasibility).

    On an infeasible verdict active_set names the rows that certify it, in
    row order: the violated row p and the active rows with r_j < 0 of the
    dual method's Farkas certificate g_p = sum_j r_j g_j (no point within
    the radius the module docstring gives meets them all), or the first
    degenerate row with the largest bound when that decided it.  An
    iteration-limited solve certifies nothing and leaves it empty.
    """

    status: str                      # "optimal" | "infeasible"
    u: tuple | None                  # one float per variable
    active_set: tuple = ()
    iterations: int = 0
    iteration_limited: bool = False


def _residuals(problem: QpProblem, u: list) -> list:
    """g_r . u - b_r of every internal row (user rows, box lower, box upper)."""
    res = list(map(sub, map(problem._dot, problem._G, repeat(u)), problem._b))
    if problem.box is not None:
        lo, hi = problem.box
        res += map(sub, u, lo)
        res += map(sub, hi, u)
    return res


def _orth(basis: list, g: list, dot) -> tuple[list, list]:
    """(w, z) with g = sum_i w_i basis_i + z and z orthogonal to the
    orthonormal vectors basis (modified Gram-Schmidt)."""
    w = []
    for q in basis:
        c = dot(q, g)
        w.append(c)
        g = [gi - c * qi for gi, qi in zip(g, q)]
    return w, g


def _append(problem: QpProblem, basis: list, R: list, w: list, z: list, zz: float) -> None:
    """Extend the factorization by a row with _orth parts w and z, zz = z . z."""
    nz = math.sqrt(zz)
    basis.append(_kernels(problem.dim)[2](z, nz))
    R.append(w + [nz])


def _refactor(problem: QpProblem, basis: list, R: list, rows: list, k: int) -> None:
    """Factor rows again from row k on, after the row at k left."""
    del basis[k:], R[k:]
    for g in rows[k:]:
        w, z = _orth(basis, g, problem._dot)
        _append(problem, basis, R, w, z, problem._dot(z, z))


def _forward(R: list, w: list) -> list:
    """c with R^T c = w, R upper triangular and stored by columns."""
    c = []
    for col, wj in zip(R, w):
        for ci, rij in zip(c, col):
            wj -= rij * ci
        c.append(wj / col[len(c)])
    return c


def _back(R: list, w: list) -> list:
    """r with R r = w, R upper triangular and stored by columns."""
    r = list(w)
    for i in range(len(w) - 1, -1, -1):
        for j in range(i + 1, len(w)):
            r[i] -= R[j][i] * r[j]
        r[i] /= R[i][i]
    return r


def _project(problem: QpProblem, active: list, rows: list, basis: list, R: list) -> tuple:
    """Projection of the target onto the equalities of the internal rows
    active (their vectors in rows, factored as rows[j] = sum_i R[j][i]
    basis[i]); returns (x, lambda).  With G_A^T = Q R, the step is
    x - u0 = Q c for R^T c = b_A - G_A u0, and lambda = R^-1 c.  The most
    negative multiplier (ties to the earliest entry) leaves, in place, until
    none is below -DUAL_TOL."""
    u0, dot = problem.target, problem._dot
    while True:
        bounds = [problem._bound(r) for r in active]
        c = _forward(R, [bi - dot(g, u0) for bi, g in zip(bounds, rows)])
        lam = _back(R, c)
        if not lam or min(lam) >= -DUAL_TOL:
            break
        k = lam.index(min(lam))
        del active[k], rows[k]
        _refactor(problem, basis, R, rows, k)
    if not basis:
        return list(u0), []
    dot_k = _kernels(len(basis))[1]
    cols = list(zip(*basis))
    x = [ui + dot_k(col, c) for ui, col in zip(u0, cols)]
    # Q is orthonormal only to rounding times the conditioning of G_A, so x
    # misses nearly parallel active rows by more than rounding, and their
    # large multipliers magnify the miss; one refinement step corrects it.
    miss = [bi - dot(g, x) for bi, g in zip(bounds, rows)]
    if max(map(abs, map(mul, lam, miss))) > _REFINE_TOL:
        c = _forward(R, miss)
        x = [xi + dot_k(col, c) for xi, col in zip(x, cols)]
        lam = list(map(add, lam, _back(R, c)))
    return x, lam


def solve(problem: QpProblem, warm_start=None) -> QpSolution:
    """Solve the QP; never raises on infeasibility (reported in the status)."""
    G, b, tol = problem._G, problem._b, problem._tol
    lo, hi = problem.box or (None, None)
    dim, n_user, m = problem.dim, len(b), len(tol)
    u0, dot = problem.target, problem._dot

    # Rows with ~zero coefficients are vacuous or certify infeasibility outright.
    if problem._degenerate:
        worst = max(problem._degenerate, key=b.__getitem__)
        if b[worst] > FEAS_TOL:
            return QpSolution(status="infeasible", u=None, active_set=(worst,))

    # First iterate: the target clipped to the box, in one pass with the same
    # comparisons as np.clip; each clipped bound is active with the clip
    # distance as its multiplier.  When it meets every row it is the
    # projection (the box projection lower-bounds any subset's): the typical
    # no-conflict control tick.
    active, lam = [], []
    if lo is None or (all(map(le, lo, u0)) and all(map(le, u0, hi))):
        x = u0
    else:
        x = []
        for i, (ui, lo_i, hi_i) in enumerate(zip(u0, lo, hi)):
            if ui < lo_i:
                active.append(n_user + i)
                lam.append(lo_i - ui)
            elif ui > hi_i:
                active.append(n_user + dim + i)
                lam.append(ui - hi_i)
            ui = ui if ui > lo_i else lo_i
            x.append(ui if ui < hi_i else hi_i)
    # The clipped target meets every box row, so only the user rows are checked.
    res = list(map(sub, map(dot, G, repeat(x)), b))
    if min(map(add, res, tol), default=0.0) >= 0.0:
        return QpSolution(status="optimal", u=tuple(x), active_set=tuple(active))

    warm = [int(r) for r in warm_start if 0 <= int(r) < m] if warm_start else []
    # The active rows stay factored as G_A^T = Q R: rows[j] = sum_i R[j][i]
    # basis[i] with orthonormal basis vectors.
    if warm:
        active, rows, basis, R = [], [], [], []
        for r in warm:
            g = problem._vector(r)
            w, z = _orth(basis, g, dot)
            zz = dot(z, z)
            if zz > _DEP_TOL:  # skip rows in the span of those kept
                _append(problem, basis, R, w, z, zz)
                active.append(r)
                rows.append(g)
        x, lam = _project(problem, active, rows, basis, R)
        res = _residuals(problem, x)
    else:
        rows = [problem._vector(r) for r in active]
        basis, R = [], []
        _refactor(problem, basis, R, rows, 0)
        if lo is not None:
            res += map(sub, x, lo)
            res += map(sub, hi, x)

    iterations = 0
    exact = True  # x is the projection onto A, not a sum of steps
    while True:
        if min(map(add, res, tol)) >= 0.0:
            if exact:
                break
            # The steps accumulate rounding: the answer is the projection
            # onto the final A, checked again.
            x, lam = _project(problem, active, rows, basis, R)
            res = _residuals(problem, x)
            exact = True
            continue
        # The most violated row p enters A, after the rows blocking it leave.
        s = min(res)  # its residual, < 0
        p = res.index(s)
        g = problem._vector(p)
        lam_p = 0.0
        while True:
            if iterations == MAX_ITER:
                return QpSolution(status="infeasible", u=None, iterations=iterations,
                                  iteration_limited=True)
            iterations += 1
            w, z = _orth(basis, g, dot)
            zz = dot(z, z)
            r = _back(R, w)
            # the first active multiplier to reach 0 (ties to the earliest entry)
            t, k = math.inf, -1
            for j, rj in enumerate(r):
                if rj > 0.0:
                    tj = max(lam[j], 0.0) / rj
                    if tj < t:
                        t, k = tj, j
            if zz > _DEP_TOL and -s <= t * zz:  # p reaches its bound first
                t, k = -s / zz, -1
            elif k < 0:  # g_p = G_A^T r with r <= 0: no point meets A and p
                certificate = sorted([p, *(a for a, rj in zip(active, r) if rj < 0.0)])
                return QpSolution(status="infeasible", u=None, active_set=tuple(certificate),
                                  iterations=iterations)
            lam = [lj - t * rj for lj, rj in zip(lam, r)]
            lam_p += t
            if zz > _DEP_TOL:
                x = [xi + t * zi for xi, zi in zip(x, z)]
                s += t * zz
            if k < 0:
                break
            del active[k], rows[k], lam[k]
            _refactor(problem, basis, R, rows, k)
        _append(problem, basis, R, w, z, zz)
        active.append(p)
        rows.append(g)
        lam.append(lam_p)
        res = _residuals(problem, x)
        exact = False

    return QpSolution(status="optimal", u=tuple(x), active_set=tuple(sorted(active)),
                      iterations=iterations)
