import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import ffcbf
from ffcbf import qp
from ffcbf.qp import QpProblem, QpSolution, solve
from ffcbf.scenario import default_config, run_trial


def sparse_rows(rows):
    """QpProblem rows of dense (coeffs, lower_bound) test data, as floats.

    Even rows list every index; odd rows list only the entries that are not
    +0.0 (a -0.0 stays listed, as it sets a sign bit), so the tests that
    compare bits also check that listed and omitted zeros normalize alike.
    """
    sparse = []
    for r, (coeffs, lb) in enumerate(rows):
        pairs = [(i, float(c)) for i, c in enumerate(coeffs)]
        if r % 2:
            pairs = [(i, c) for i, c in pairs if c != 0.0 or math.copysign(1.0, c) < 0.0]
        sparse.append((tuple(pairs), float(lb)))
    return sparse


def dense_rows(rows, dim):
    """The (coeffs, lower_bound) form of QpProblem rows, with zeros filled in."""
    dense = []
    for pairs, lb in rows:
        coeffs = [0.0] * dim
        for i, c in pairs:
            coeffs[i] = c
        dense.append((coeffs, lb))
    return dense


def oracle(problem, feas_tol=1e-9, dual_tol=1e-9):
    """Brute-force reference: enumerate active sets of the raw rows.

    The QP is strictly convex, so if it is feasible exactly one active set
    yields a KKT point; if no subset does, the problem is infeasible.
    Kept independent of the solver's internals (no normalization, its own
    linear algebra).  Each Gram solve gets one refinement step: on nearly
    parallel rows the Gram matrix is ill-conditioned, and without it u
    misses its active rows by ~1e-9, enough to misplace an optimum or to
    call a feasible problem infeasible.
    """
    rows = [(np.asarray(c, dtype=float), float(lb))
            for c, lb in dense_rows(problem.rows, problem.dim)]
    if problem.box is not None:
        lo, hi = problem.box
        for i in range(problem.dim):
            e = np.zeros(problem.dim)
            e[i] = 1.0
            rows.append((e.copy(), float(lo[i])))
        for i in range(problem.dim):
            e = np.zeros(problem.dim)
            e[i] = -1.0
            rows.append((e, float(-hi[i])))
    G = np.array([c for c, _ in rows]) if rows else np.zeros((0, problem.dim))
    b = np.array([lb for _, lb in rows])
    u0 = np.asarray(problem.target)

    def feasible(u):
        return G.shape[0] == 0 or np.all(G @ u >= b - feas_tol * (1 + np.abs(b)))

    m = G.shape[0]
    for size in range(0, problem.dim + 1):
        for subset in itertools.combinations(range(m), size):
            idx = list(subset)
            Gs = G[idx]
            try:
                if idx:
                    gram = Gs @ Gs.T
                    lam = np.linalg.solve(gram, b[idx] - Gs @ u0)
                    lam = lam + np.linalg.solve(gram, b[idx] - Gs @ (u0 + Gs.T @ lam))
                else:
                    lam = np.zeros(0)
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(lam)):
                continue
            u = u0 + (Gs.T @ lam if idx else 0.0)
            if np.all(lam >= -dual_tol) and feasible(u):
                return u
    return None


def random_problem(rng, dim=None, max_rows=12, with_box=True):
    dim = dim or rng.integers(1, 5)
    n_rows = int(rng.integers(0, max_rows + 1))
    u0 = rng.normal(0, 3, dim)
    rows = []
    for _ in range(n_rows):
        c = rng.normal(0, 1, dim)
        lb = rng.normal(-1, 2)
        rows.append((c, lb))
    box = None
    if with_box and rng.random() < 0.7:
        lo = rng.uniform(-6, 0, dim)
        hi = rng.uniform(0, 6, dim)
        box = (lo, hi)
    return QpProblem(dim=int(dim), target=u0, rows=sparse_rows(rows), box=box)


class TestExamples:
    def test_unconstrained(self):
        sol = solve(QpProblem(dim=2, target=[1.0, -2.0]))
        assert sol.status == "optimal"
        assert np.allclose(sol.u, [1.0, -2.0])
        assert sol.active_set == ()

    def test_halfline_projection(self):
        sol = solve(QpProblem(dim=1, target=[0.0], rows=((((0, 1.0),), 2.0),)))
        assert sol.status == "optimal"
        assert sol.u[0] == pytest.approx(2.0, abs=1e-10)

    def test_contradictory_rows(self):
        prob = QpProblem(dim=2, target=[3.0, 0.0],
                         rows=((((0, 1.0),), 5.0), (((0, -1.0),), -4.0)))
        sol = solve(prob)
        assert sol.status == "infeasible"
        assert sol.u is None
        assert sol.active_set == (0, 1)  # u0 >= 5 and -u0 >= -4

    def test_degenerate_row_is_the_certificate(self):
        # rows 1-3 have ~zero coefficients; of the two with the largest
        # bound, the first decides the verdict
        prob = QpProblem(dim=2, target=[0.0, 0.0], rows=(
            (((0, 1.0),), 1.0), (((0, 0.0),), 0.25), (((1, 1e-15),), 0.5), ((), 0.5)))
        sol = solve(prob)
        assert sol.status == "infeasible" and sol.u is None
        assert sol.active_set == (2,) and sol.iterations == 0

    def test_malformed_input_raises(self):
        with pytest.raises(ValueError):
            QpProblem(dim=1, target=[float("nan")])
        with pytest.raises(ValueError):
            QpProblem(dim=1, target=[0.0], rows=((((0, float("inf")),), 0.0),))
        for target in ([0.0], [0.0, 0.0, 0.0], 0.0,              # wrong length, scalar
                       [[0.0], [0.0]], np.zeros((2, 1)),          # nested
                       ["a", 0.0], [None, 0.0]):                  # non-numeric
            with pytest.raises(ValueError):
                QpProblem(dim=2, target=target)

    def test_float_tuples_in_and_out(self):
        prob = QpProblem(dim=2, target=np.array([3.0, -1.0]), rows=((((0, 1.0),), 4.0),),
                         box=(np.array([-5.0, -5.0]), [5, 5]))
        assert prob.target == (3.0, -1.0) and prob.box == ((-5.0, -5.0), (5.0, 5.0))
        sol = solve(prob)
        assert sol.u == (4.0, -1.0)
        for values in (prob.target, *prob.box, sol.u):
            assert type(values) is tuple and all(type(x) is float for x in values)
        assert type(prob.rows) is tuple

    @pytest.mark.parametrize("dim, rows", [
        (2, [([1.0, 2.0], 0.5)]),                     # list coefficients
        (2, [((0.0, 1.0), 0.5)]),                     # tuple of floats
        (2, [((0, 1), 0.5)]),                         # integer coefficients, valid as indices
        (2, [(np.array([0.0, 1.0]), 0.5)]),           # array
        (1, [([1.0], 2.0)]),                          # one variable
        (3, [(((0, 1.0),), 0.5), ([0.0, 1.0, 2.0], 0.5)]),  # after a sparse row
    ])
    def test_dense_row_raises(self, dim, rows):
        # the dense (coeffs, lower_bound) form is no longer read: it raises
        # instead of being taken for (index, coeff) pairs
        with pytest.raises(ValueError, match="malformed rows"):
            QpProblem(dim=dim, target=[0.0] * dim, rows=rows)


class TestOracleAgreement:
    def test_random_problems(self):
        rng = np.random.default_rng(2024)
        n_infeasible = 0
        for _ in range(300):
            prob = random_problem(rng)
            sol = solve(prob)
            ref = oracle(prob)
            if ref is None:
                assert sol.status == "infeasible", prob
                n_infeasible += 1
            else:
                assert sol.status == "optimal", prob
                assert np.allclose(sol.u, ref, atol=1e-6), (prob, sol.u, ref)
        assert n_infeasible > 5  # the sample actually exercised both outcomes

    def test_wide_problems(self):
        # more rows than the criterion baseline: still projection-exact
        rng = np.random.default_rng(77)
        for _ in range(60):
            prob = random_problem(rng, dim=4, max_rows=20, with_box=False)
            sol = solve(prob)
            ref = oracle(prob)
            if ref is None:
                assert sol.status == "infeasible"
            else:
                assert sol.status == "optimal"
                assert np.allclose(sol.u, ref, atol=1e-6)


class TestSolutionQuality:
    def test_rows_satisfied_within_tolerance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            prob = random_problem(rng)
            sol = solve(prob)
            if sol.status != "optimal":
                continue
            u = np.asarray(sol.u)
            for c, lb in dense_rows(prob.rows, prob.dim):
                assert np.dot(c, u) >= lb - 1e-6 * (1 + abs(lb))
            if prob.box is not None:
                assert np.all(u >= np.asarray(prob.box[0]) - 1e-8)
                assert np.all(u <= np.asarray(prob.box[1]) + 1e-8)
            assert kkt_residual(prob, sol.u, sol.active_set) <= 1e-6

    def test_determinism_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            prob = random_problem(rng)
            a, b = solve(prob), solve(prob)
            assert a.status == b.status
            if a.status == "optimal":
                assert np.array_equal(a.u, b.u)
                assert a.active_set == b.active_set

    def test_scale_robustness(self):
        prob = QpProblem(
            dim=2, target=[2.0, 1.0],
            rows=sparse_rows([([1.0, 1.0], 4.0), ([-1.0, 2.0], -3.0)]),
        )
        scaled = QpProblem(
            dim=2, target=[2.0, 1.0],
            rows=sparse_rows([([1e3, 1e3], 4e3), ([-1e3, 2e3], -3e3)]),
        )
        assert np.allclose(solve(prob).u, solve(scaled).u, atol=1e-6)

    def test_warm_start_same_answer(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            prob = random_problem(rng)
            cold = solve(prob)
            warm = solve(prob, warm_start=cold.active_set)
            assert warm.status == cold.status
            if cold.status == "optimal":
                assert np.allclose(warm.u, cold.u, atol=1e-9)

    def test_warm_start_garbage_indices_ignored(self):
        prob = QpProblem(dim=1, target=[0.0], rows=((((0, 1.0),), 2.0),))
        sol = solve(prob, warm_start=(99, -3))
        assert sol.status == "optimal" and sol.u[0] == pytest.approx(2.0)


def _values(lo, hi):
    """Floats in [lo, hi] that are 0 or at least 1e-2 in magnitude.  solve()
    accepts a target that misses a row by less than its 1e-8 tolerance, ten
    times the 1e-9 to which u is compared with the oracle, so tiny values
    that put a target there are left out."""
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False).filter(
        lambda x: x == 0.0 or abs(x) >= 1e-2)


_ROW_KINDS = ("random", "zero", "degenerate", "duplicate", "opposite", "parallel")


@st.composite
def qp_cases(draw):
    """(problem, warm_start) with rows that are random, zero, degenerate
    (norm below the floor), or a duplicate, the opposite or a nearly parallel
    copy of an earlier random row (any number of copies of one row, so three
    rows through one flat make degenerate vertices); warm starts may hold
    out-of-range, repeated, box and degenerate indices and linearly
    dependent rows.

    Degenerate rows only get a bound below 0: solve() reads a degenerate row
    as 0 . u >= lb, the oracle as a tiny real row, so with lb > 0 the two
    mean different problems.
    """
    dim = draw(st.integers(1, 6))
    vec = st.lists(_values(-3, 3), min_size=dim, max_size=dim)
    rows, bases = [], []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(_ROW_KINDS))
        if kind in ("duplicate", "opposite", "parallel") and bases:
            c, lb = bases[draw(st.integers(0, len(bases) - 1))]
            if kind == "duplicate":
                rows.append((list(c), lb))
            elif kind == "opposite":     # together with c: c . u == lb
                rows.append(([-x for x in c], -lb))
            else:
                eps = draw(st.floats(1e-3, 1e-2))
                rows.append(([x + eps * n for x, n in zip(c, draw(vec))],
                             lb + eps * draw(st.floats(-1, 1))))
        elif kind == "zero":
            rows.append(([0.0] * dim, draw(st.sampled_from([-1.0, 0.0, 0.5]))))
        elif kind == "degenerate":
            rows.append(([x * 1e-15 for x in draw(vec)], -1.0))
        else:
            c = draw(vec.filter(lambda c: max(map(abs, c)) > 1e-3))
            bases.append((c, draw(_values(-3, 3))))
            rows.append(bases[-1])
    box = None
    if draw(st.booleans()):
        box = (draw(st.lists(_values(-6, 0), min_size=dim, max_size=dim)),
               draw(st.lists(_values(0, 6), min_size=dim, max_size=dim)))
    target = draw(st.lists(_values(-8, 8), min_size=dim, max_size=dim))
    prob = QpProblem(dim=dim, target=target, rows=sparse_rows(rows), box=box)
    warm = draw(st.none() | st.lists(st.integers(-3, len(prob._tol) + 3), max_size=6))
    return prob, warm


class TestFloatKernelProperty:
    """solve() against the brute-force oracle on generated problems."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(qp_cases())
    def test_matches_oracle(self, case):
        prob, warm = case
        # Skip problems whose verdict hangs on the tolerances: a minimum row
        # violation between the oracle's 1e-9 and the solver's 1e-7.
        G, b = stacked(prob)
        slack = highs_min_slack(G, b)
        assume(not 1e-12 < slack < 1e-6)
        sol = solve(prob, warm_start=warm)
        ref = oracle(prob)
        assert sol.status == ("infeasible" if ref is None else "optimal")
        if ref is not None:
            assert np.abs(np.asarray(sol.u) - ref).max() <= 1e-9 * (1.0 + np.abs(ref).max())
            assert kkt_residual(prob, sol.u, sol.active_set) <= 1e-8
            return
        # the certificate's rows alone admit no point
        cert = list(sol.active_set)
        assert cert and cert == sorted(set(cert)) and not sol.iteration_limited
        assert highs_min_slack(G[cert], b[cert]) > 1e-9

    def test_same_row_twice(self):
        # the second copy lies in the span of the first and never enters
        prob = QpProblem(dim=2, target=[0.0, 0.0],
                         rows=sparse_rows([([1.0, 1.0], 2.0), ([1.0, 1.0], 2.0)]))
        sol = solve(prob)
        assert sol.status == "optimal"
        assert list(sol.u) == pytest.approx([1.0, 1.0], abs=1e-12)
        assert kkt_residual(prob, sol.u, sol.active_set) <= 1e-12

    def test_dependent_warm_start(self):
        # a warm start naming both bounds of one variable keeps the first
        prob = QpProblem(dim=1, target=[-1.0], rows=((((0, 2.0),), -1.0),), box=([-1.0], [0.0]))
        sol = solve(prob, warm_start=(1, 2))
        assert sol.status == "optimal" and sol.u[0] == pytest.approx(-0.5, abs=1e-9)

    def test_degenerate_vertex(self):
        # an equality pair and a nearly parallel row through the same point
        prob = QpProblem(dim=2, target=[0.0, 1.0], rows=sparse_rows([
            ([1.0, 2.0], 1.0), ([1.0, 1.9987700918464433], 1.0), ([-1.0, -2.0], -1.0)]))
        sol = solve(prob)
        assert sol.status == "optimal" and list(sol.u) == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_oracle_exact_on_nearly_parallel_rows(self):
        # an equality pair and a nearly parallel row (the optimum is their
        # vertex): without its refinement step the oracle misses it by 1.8e-10
        c = [1.4922768789834064, 1.1741008793857404]
        prob = QpProblem(dim=2, target=[-7.398307314827758, -6.9033889126885875], rows=sparse_rows([
            (c, 0.5), ([-x for x in c], -0.5),
            ([1.48274073205856, 1.1707091443551005], 0.5052569693551436)]))
        sol = solve(prob)
        assert sol.status == "optimal" and kkt_residual(prob, sol.u, sol.active_set) <= 1e-12
        assert np.abs(oracle(prob) - np.asarray(sol.u)).max() <= 1e-12

    def test_nearly_parallel_active_pair(self):
        # multipliers near 3e4 magnify any miss of the active rows in the KKT
        # check's complementarity term
        prob = QpProblem(dim=2, target=[0.0, 0.0],
                         rows=sparse_rows([([1.0, 0.24609375], 0.0), ([-2.25, -0.5625], 1.0)]))
        sol = solve(prob)
        assert sol.status == "optimal" and sol.active_set == (0, 1)
        assert list(sol.u) == pytest.approx([28.0, -1024.0 / 9.0], rel=1e-12)
        assert kkt_residual(prob, sol.u, sol.active_set) <= 1e-9


class TestKktResidual:
    """The tests' KKT check on solve()'s answers."""

    def test_optimal_residual_small(self):
        prob = QpProblem(dim=2, target=[3.0, 0.0], rows=((((0, 1.0),), 4.0),))
        sol = solve(prob)
        assert sol.active_set == (0,) and kkt_residual(prob, sol.u, sol.active_set) <= 1e-12

    def test_perturbed_residual_large(self):
        prob = QpProblem(dim=2, target=[3.0, 0.0], rows=((((0, 1.0),), 4.0),))
        sol = solve(prob)
        # move along the constraint surface (feasible direction): stationarity breaks
        u = (np.asarray(sol.u) + np.array([0.0, 1e-2])).tolist()
        assert kkt_residual(prob, u, sol.active_set) > 1e-4

    def test_unconstrained_zero_residual(self):
        prob = QpProblem(dim=3, target=[1.0, 2.0, 3.0])
        sol = solve(prob)
        assert list(sol.u) == [1.0, 2.0, 3.0] and kkt_residual(prob, sol.u, sol.active_set) == 0.0


@pytest.fixture(scope="module")
def left_turn_solves():
    """(problem, solution) of every solve in trial 0 of the seed-0 ff
    left-turn cells, centralized and decentralized."""
    solves = []
    real = qp.solve

    def capture(problem, warm_start=None):
        solves.append((problem, real(problem, warm_start)))
        return solves[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp, "solve", capture)
        for mode in ("centralized", "decentralized"):
            run_trial(default_config("ff", mode, "one_left_turn", seed=0), 0)
    return solves


class TestDiagnosticsOnRead:
    """The controllers' own solves: every optimal answer is a KKT point, and
    every infeasible verdict names the rows of its certificate."""

    def test_captured_ticks_read_the_eager_values(self, left_turn_solves):
        seen = Counter()
        for prob, sol in left_turn_solves:
            if sol.status == "optimal":
                assert kkt_residual(prob, sol.u, sol.active_set) <= 1e-8
            else:
                cert = list(sol.active_set)
                assert cert and cert == sorted(cert) and not sol.iteration_limited
            seen[sol.status] += 1
        assert seen["optimal"] and seen["infeasible"] > 10, seen


def per_row_reference(dim, rows, box):
    """(_G, _b, _degenerate) built row by row, the way the constructor once did.

    Below dim 8 the norms are np.linalg.norm's; from 8 on, where numpy sums
    pairwise, each squared norm is summed from 0.0 left to right, as the
    constructor does at every dim."""
    rows = [(np.asarray(c, dtype=float), float(lb)) for c, lb in rows]
    n_user = len(rows)
    m = n_user + (2 * dim if box is not None else 0)
    G = np.zeros((m, dim))
    b = np.zeros(m)
    for r, (c, lb) in enumerate(rows):
        G[r] = c
        b[r] = lb
    if box is not None:
        lo, hi = (np.asarray(bound, dtype=float) for bound in box)
        idx = np.arange(dim)
        G[n_user + idx, idx] = 1.0
        b[n_user + idx] = lo
        G[n_user + dim + idx, idx] = -1.0
        b[n_user + dim + idx] = -hi
    if dim < 8:
        norms = np.linalg.norm(G, axis=1)
    else:
        sq = np.zeros(m)
        for k in range(dim):
            sq += G[:, k] * G[:, k]
        norms = np.sqrt(sq)
    scale = np.where(norms > 1e-13, norms, 1.0)
    return G / scale[:, None], b / scale, norms <= 1e-13


def stacked(prob):
    """(G, b) of every internal row of prob as arrays: per_row_reference's,
    which TestConstructorBits checks against the solver's rows."""
    return per_row_reference(prob.dim, dense_rows(prob.rows, prob.dim), prob.box)[:2]


def kkt_residual(prob, u, active):
    """Max KKT violation (stationarity, primal, dual, complementarity) at u
    with the internal rows active, on stacked's unit rows.  The multipliers
    solve u - target = G_A^T lam by least squares, so nothing internal to
    the solver is read: only its answer and its active set."""
    G, b = stacked(prob)
    u = np.asarray(u, dtype=float)
    res = G @ u - b
    step = u - np.asarray(prob.target)
    primal = max(0.0, -res.min()) if res.size else 0.0
    if not active:
        return max(np.abs(step).max(), primal)
    active = list(active)
    lam = np.linalg.lstsq(G[active].T, step, rcond=None)[0]
    stationarity = np.abs(step - G[active].T @ lam).max()
    comp = np.abs(lam * res[active]).max()
    return max(stationarity, primal, max(0.0, -lam.min()), comp)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_reference_bytes(prob, rows, box, target):
    """prob's internal form equals per_row_reference's of the dense rows (and
    of box and target, the inputs), byte for byte.

    Internal form: normalized user rows (_G, _b) as lists of floats, the
    target and the box bounds as float tuples, one tolerance per internal row
    (_tol) and the indices of degenerate rows.
    """
    dim, n = prob.dim, len(rows)
    G, b, degenerate = per_row_reference(dim, rows, box)
    assert all(type(x) is float for x in itertools.chain(prob._b, *prob._G, prob.target))
    assert_same_bytes(np.array(prob._G, dtype=float).reshape(n, dim), G[:n])
    assert_same_bytes(np.array(prob._b, dtype=float), b[:n])
    assert prob._degenerate == tuple(np.flatnonzero(degenerate).tolist())
    if box is None:
        assert prob.box is None
    else:
        assert all(type(x) is float for x in itertools.chain(*prob.box))
        assert_same_bytes(np.array(prob.box[0]), b[n:n + dim])
        assert_same_bytes(-np.array(prob.box[1]), b[n + dim:])
    assert_same_bytes(np.array(prob._tol), qp.FEAS_TOL * (1.0 + np.abs(b)))
    assert_same_bytes(np.array(prob.target), np.asarray(target, dtype=float))


class TestConstructorBits:
    """The float-list constructor reproduces the row-by-row one byte for byte.

    Rows go in through sparse_rows, so every check also covers listed and
    omitted zeros.
    """

    def check(self, dim, rows, box, target=None):
        target = np.zeros(dim) if target is None else target
        prob = QpProblem(dim=dim, target=target, rows=sparse_rows(rows), box=box)
        assert_reference_bytes(prob, rows, box, target)
        return prob

    # 40 and 130 pass the unrolled-kernel limit and numpy's pairwise block
    # (where the reference switches to left-to-right sums)
    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 11, 40, 130])
    def test_random_problems(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(150):
            rows = []
            for _ in range(int(rng.integers(0, 16))):
                c = rng.normal(0, 2, dim)
                kind = rng.random()
                if kind < 0.15:
                    c[:] = 0.0                       # zero row
                elif kind < 0.25:
                    c *= 1e-15                       # degenerate, below the norm floor
                elif kind < 0.45:
                    c[rng.random(dim) < 0.5] = 0.0   # sparse, like the pair rows
                elif kind < 0.55:
                    c[rng.random(dim) < 0.5] = -0.0  # signed zeros
                rows.append((c, rng.normal(0, 3)))
            box = None
            if rng.random() < 0.7:
                lo = rng.uniform(-9, 0, dim)
                box = (lo, lo + rng.uniform(0, 9, dim))
                if rng.random() < 0.5:
                    box = (box[0].tolist(), box[1].tolist())
            self.check(dim, rows, box, rng.normal(0, 3, dim))

    def test_no_rows(self):
        prob = self.check(3, (), None)
        assert prob._G == [] and prob._b == [] and prob._tol == []
        self.check(3, [], ([-1.0] * 3, [1.0] * 3))

    def test_box_block_has_positive_zeros(self):
        # the +-e_i a box row enters the active set as
        prob = self.check(5, [], (np.full(5, -2.0), np.full(5, 2.0)))
        G = np.array([prob._vector(r) for r in range(len(prob._tol))])
        assert G.shape == (10, 5) and not np.signbit(G[G == 0.0]).any()

    def test_zero_and_degenerate_rows(self):
        rows = [([0.0, 0.0], 1.0), ([1e-15, -1e-15], -2.0), ([3.0, 4.0], 1.0)]
        prob = self.check(2, rows, None)
        assert prob._degenerate == (0, 1)

    def test_large_finite_values_accepted(self):
        # the row norm overflows to inf; the exact check finds every input finite
        with np.errstate(over="ignore"):
            self.check(2, [([1e200, 1e200], 0.0), ([1.0, 0.0], 1e300)], None)


class TestConstructorErrors:
    @pytest.mark.parametrize("kwargs", [
        dict(dim=0, target=[]),
        dict(dim=2, target=[0.0]),
        dict(dim=2, target=[0.0, 0.0], rows=1.0),                                  # rows not a sequence
        dict(dim=2, target=[0.0, 0.0], rows=((((0, 1.0),),),)),                    # no lower bound
        dict(dim=2, target=[0.0, 0.0], rows=((((0, 1.0),), 0.0, 1.0),)),          # an extra item
        dict(dim=2, target=[0.0, 0.0], rows=((((0, 1.0), (1, float("inf"))), 0.0),)),
        dict(dim=2, target=[0.0, 0.0], rows=((((0, 1.0), (1, 1.0)), float("nan")),)),
        dict(dim=1, target=[float("nan")]),
        dict(dim=1, target=[float("inf")], rows=((((0, 1.0),), 0.0),)),
        dict(dim=1, target=[0.0], box=([float("-inf")], [1.0])),
        dict(dim=1, target=[0.0], box=([0.0], [float("nan")])),
        dict(dim=2, target=[0.0, 0.0], box=([0.0], [1.0, 1.0])),                  # box shape
        dict(dim=2, target=[0.0, 0.0], box=([0.0, 2.0], [1.0, 1.0])),             # lo > hi
    ])
    def test_raises_value_error(self, kwargs):
        with pytest.raises(ValueError):
            QpProblem(**kwargs)


@pytest.fixture(scope="module")
def captured_problems():
    """Every QP the controllers build in trial 0 of each seed-0 centralized
    cell of both scenarios, and of one decentralized cell."""
    problems = []
    real = qp.QpProblem

    def capture(*args, **kwargs):
        problems.append(real(*args, **kwargs))
        return problems[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp, "QpProblem", capture)
        for scenario in ("all_straight", "one_left_turn"):
            for kind in ("zero", "ff", "rff"):
                run_trial(default_config(kind, "centralized", scenario, seed=0), 0)
        run_trial(default_config("rff", "decentralized", "one_left_turn", seed=0), 0)
    return problems


class TestSparseRows:
    """Rows as their nonzero (index, coeff) pairs, the one row form, against
    the numpy reference of their dense form."""

    def test_captured_ticks_match_the_dense_form(self, captured_problems):
        # ff and rff pairs with equal velocities give all-zero (degenerate) rows
        assert sum(1 for p in captured_problems if p._degenerate) > 1000
        assert {p.dim for p in captured_problems} == {1, 4}
        for prob in captured_problems:
            assert type(prob.rows) is tuple
            assert_reference_bytes(prob, dense_rows(prob.rows, prob.dim), prob.box, prob.target)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 7])
    def test_random_rows_match_the_dense_form(self, dim):
        rng = np.random.default_rng(300 + dim)
        for _ in range(200):
            rows = []
            for _ in range(int(rng.integers(0, 12))):
                idx = np.flatnonzero(rng.random(dim) < 0.5).tolist()
                c = rng.normal(0, 2, len(idx)) * rng.choice([1e-15, 1.0, 1e3])
                c[rng.random(len(idx)) < 0.1] = -0.0
                rows.append((tuple(zip(idx, c.tolist())), float(rng.normal(0, 3))))
            lo = rng.uniform(-9, 0, dim)
            box = (tuple(lo.tolist()), tuple((lo + rng.uniform(0, 9, dim)).tolist()))
            target = rng.normal(0, 3, dim).tolist()
            prob = QpProblem(dim=dim, target=target, rows=rows, box=box)
            assert_reference_bytes(prob, dense_rows(rows, dim), box, target)

    @pytest.mark.parametrize("rows", [
        [(((2, 1.0),), 0.0)],                   # index past dim
        [(((-1, 1.0),), 0.0)],                  # negative index
        [(((0, 1.0), (0, 2.0)), 0.0)],          # repeated index
        [(((1, 1.0), (0, 2.0)), 0.0)],          # indices out of order
        [(((0.5, 1.0),), 0.0)],                 # non-integer index
        [((0, 1.0), 0.0)],                      # pairs not nested
        [(((0, float("nan")),), 0.0)],
        [(((0, 1.0), (1, float("-inf"))), 0.0)],
        [(((0, 1.0),), float("inf"))],
    ])
    def test_malformed_rows_raise(self, rows):
        with pytest.raises(ValueError):
            QpProblem(dim=2, target=[0.0, 0.0], rows=rows)

    def test_box_terms_are_shared_and_read_only(self):
        box = ((-2.0, -1.0), (3.0, 4.0))
        a = QpProblem(dim=2, target=[0.0, 0.0], box=box)
        b = QpProblem(dim=2, target=[1.0, 1.0], box=([-2.0, -1.0], np.array([3.0, 4.0])))
        assert a.box is b.box and a._tol == b._tol
        with pytest.raises(TypeError):
            a.box[1][0] = 0.0

    def test_zero_bounds_keep_their_sign(self):
        # -0.0 == 0.0, so boxes with a zero bound are not taken from the cache
        pos = QpProblem(dim=1, target=[0.0], box=([0.0], [1.0]))
        neg = QpProblem(dim=1, target=[0.0], box=([-0.0], [1.0]))
        assert not np.signbit(pos.box[0][0]) and np.signbit(neg.box[0][0])
        assert math.copysign(1.0, neg.box[0][0]) == -1.0


def _fresh_interpreter(code, *args):
    """stdout of ``code`` run in a new interpreter with the ffcbf sources first
    on sys.path (sys.argv[1]); extra args follow."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ffcbf.__file__)))
    return subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); " + code,
                           src, *args], capture_output=True, text=True, check=True).stdout


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


class TestLazyScipy:
    """The package runs on numpy alone: SciPy is a test oracle only."""

    def test_import_leaves_scipy_unloaded(self):
        out = _fresh_interpreter(f"import ffcbf; print({_SCIPY_MODULES})")
        assert out.strip() == "[]"

    def test_infeasible_verdict_leaves_scipy_unloaded(self):
        code = ("from ffcbf.qp import QpProblem, solve; "
                "sol = solve(QpProblem(dim=2, target=[3.0, 0.0], "
                "rows=((((0, 1.0),), 5.0), (((0, -1.0),), -4.0)))); "
                f"print(json.dumps([sol.status, sol.active_set, {_SCIPY_MODULES}]))")
        status, rows, modules = json.loads(_fresh_interpreter("import json; " + code))
        assert status == "infeasible" and rows == [0, 1]
        assert modules == []

    def test_compare_run_leaves_scipy_unloaded(self, tmp_path):
        # a centralized left-turn compare run has infeasible ticks
        code = ("import json; from ffcbf import cli, qp; verdicts = []; real = qp.solve; "
                "qp.solve = lambda *a: verdicts.append(real(*a)) or verdicts[-1]; "
                "rc = cli.main(['compare', '--mode', 'centralized', '--scenario', 'left-turn', "
                "'--trials', '2', '--seed', '0', '--workers', '1', '--out', sys.argv[2]]); "
                "infeasible = sum(sol.status == 'infeasible' for sol in verdicts); "
                f"print(json.dumps([rc, infeasible, {_SCIPY_MODULES}]))")
        out = _fresh_interpreter(code, str(tmp_path))
        rc, infeasible, modules = json.loads(out.splitlines()[-1])
        assert rc == 0 and infeasible > 0
        assert modules == []


def highs_min_slack(G, b):
    """Oracle: min s s.t. G u + s >= b, s >= 0, the least over u of the
    largest row violation, through scipy's HiGHS with tight tolerances."""
    from scipy.optimize import linprog as highs_linprog

    m, dim = G.shape
    if m == 0:
        return 0.0
    c = np.zeros(dim + 1)
    c[-1] = 1.0
    res = highs_linprog(c, A_ub=np.hstack([-G, -np.ones((m, 1))]), b_ub=-b,
                        bounds=[(None, None)] * dim + [(0.0, None)], method="highs",
                        options={"primal_feasibility_tolerance": 1e-10,
                                 "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return float(res.x[-1])
