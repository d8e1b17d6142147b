import numpy as np
import pytest

from stokesmg.linalg import (
    SingularMatrixError,
    chebyshev,
    dense_lu,
    estimate_lambda_max,
    fgmres,
)


class TestDenseLU:
    def test_diagonal(self):
        F = dense_lu(np.diag([2.0, 4.0, 8.0]))
        b = np.array([2.0, 4.0, 8.0])
        assert np.allclose(F.solve(b), np.ones(3))

    def test_pivoting_required(self):
        F = dense_lu(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(F.solve(np.array([3.0, 7.0])), [7.0, 3.0])

    def test_random_spd_against_iterative_oracle(self):
        rng = np.random.default_rng(3)
        Q = rng.standard_normal((20, 20))
        M = Q @ Q.T + 20 * np.eye(20)
        b = rng.standard_normal(20)
        x = dense_lu(M).solve(b)
        # conjugate-residual oracle
        y = np.zeros(20)
        r = b.copy()
        p = r.copy()
        Mr = M @ r
        Mp = Mr.copy()
        for _ in range(200):
            alpha = (r @ Mr) / (Mp @ Mp)
            y += alpha * p
            r_new = r - alpha * Mp
            Mr_new = M @ r_new
            beta = (r_new @ Mr_new) / (r @ Mr)
            p = r_new + beta * p
            Mp = Mr_new + beta * Mp
            r, Mr = r_new, Mr_new
            if np.linalg.norm(r) < 1e-14:
                break
        assert np.allclose(x, y, atol=1e-9)

    def test_singular_raises(self):
        M = np.ones((3, 3))
        with pytest.raises(SingularMatrixError):
            dense_lu(M)

    def test_residual_bound(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((30, 30)) + 30 * np.eye(30)
        b = rng.standard_normal(30)
        x = dense_lu(M).solve(b)
        assert np.linalg.norm(M @ x - b) <= 1e-10 * np.linalg.norm(b)


class TestFGMRES:
    def test_identity_converges_immediately(self):
        b = np.array([1.0, -2.0, 3.0])
        x, report = fgmres(lambda v: v, lambda v: v, b)
        assert report.converged
        assert report.iterations == 1
        assert np.allclose(x, b)

    def test_exact_preconditioner_one_iteration(self):
        rng = np.random.default_rng(5)
        K = rng.standard_normal((12, 12)) + 12 * np.eye(12)
        Kinv = np.linalg.inv(K)
        b = rng.standard_normal(12)
        x, report = fgmres(lambda v: K @ v, lambda v: Kinv @ v, b)
        assert report.converged and report.iterations == 1
        assert np.allclose(K @ x, b, atol=1e-9)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        K = rng.standard_normal((50, 50)) + 50 * np.eye(50)
        b = rng.standard_normal(50)
        x, report = fgmres(lambda v: K @ v, lambda v: v, b, rtol=1e-12)
        assert report.converged
        assert np.allclose(x, np.linalg.solve(K, b), atol=1e-8)

    def test_nonconvergence_is_reported_not_raised(self):
        rng = np.random.default_rng(2)
        K = rng.standard_normal((40, 40)) + 1e-3 * np.eye(40)
        b = rng.standard_normal(40)
        x, report = fgmres(lambda v: K @ v, lambda v: v, b,
                           rtol=1e-14, maxiter=5)
        assert not report.converged
        assert report.iterations == 5

    def test_history_starts_at_initial_residual(self):
        rng = np.random.default_rng(4)
        K = rng.standard_normal((20, 20)) + 20 * np.eye(20)
        b = rng.standard_normal(20)
        _, report = fgmres(lambda v: K @ v, lambda v: v, b)
        assert report.history[0] == pytest.approx(np.linalg.norm(b))

    def test_history_non_increasing_within_cycle(self):
        rng = np.random.default_rng(6)
        K = rng.standard_normal((60, 60)) + 8 * np.eye(60)
        b = rng.standard_normal(60)
        restart = 10
        _, report = fgmres(lambda v: K @ v, lambda v: v, b,
                           restart=restart, rtol=1e-12)
        h = report.history
        for i in range(1, len(h)):
            if (i - 1) % restart == 0:
                continue  # restart boundary may jump
            assert h[i] <= h[i - 1] * (1 + 1e-12)

    def test_converged_meets_rtol(self):
        rng = np.random.default_rng(8)
        K = rng.standard_normal((30, 30)) + 15 * np.eye(30)
        b = rng.standard_normal(30)
        x, report = fgmres(lambda v: K @ v, lambda v: v, b, rtol=1e-10)
        assert report.converged
        assert report.final_residual <= 1e-10 * report.history[0]
        assert np.linalg.norm(b - K @ x) <= 1.01 * 1e-10 * np.linalg.norm(b)

    def test_initial_guess(self):
        rng = np.random.default_rng(13)
        K = rng.standard_normal((25, 25)) + 25 * np.eye(25)
        xstar = rng.standard_normal(25)
        b = K @ xstar
        x, report = fgmres(lambda v: K @ v, lambda v: v, b, x0=xstar)
        assert report.converged and report.iterations == 0
        assert np.array_equal(x, xstar)

    def test_zero_rhs(self):
        x, report = fgmres(lambda v: v, lambda v: v, np.zeros(4))
        assert report.converged and report.iterations == 0
        assert np.array_equal(x, np.zeros(4))

    def test_nullspace_projection(self):
        # Singular consistent system: solve within the orthogonal complement.
        n = 10
        K = np.eye(n)
        K[-1, -1] = 0.0
        c = np.zeros(n)
        c[-1] = 1.0
        b = np.ones(n)
        b[-1] = 0.0

        def project(v):
            return v - (c @ v) * c

        x, report = fgmres(lambda v: K @ v, lambda v: v, b, project=project)
        assert report.converged
        assert abs(c @ x) < 1e-12
        assert np.allclose(x[:-1], 1.0)

    def test_precond_times_recorded(self):
        rng = np.random.default_rng(21)
        K = rng.standard_normal((15, 15)) + 15 * np.eye(15)
        b = rng.standard_normal(15)
        _, report = fgmres(lambda v: K @ v, lambda v: v, b)
        assert len(report.precond_times) == report.iterations
        assert all(t >= 0 for t in report.precond_times)

    @pytest.mark.parametrize("kwargs, name", [
        ({"restart": 0}, "restart"), ({"restart": -3}, "restart"),
        ({"maxiter": -1}, "maxiter"), ({"rtol": -1e-10}, "rtol"),
        ({"rtol": float("nan")}, "rtol"),
    ])
    def test_rejects_invalid_arguments(self, kwargs, name):
        # restart = 0 used to spin for ever: no direction per cycle meant
        # no iteration, so the outer loop never reached maxiter.
        calls = []

        def apply_K(v):
            calls.append(1)
            return 2.0 * v

        with pytest.raises(ValueError, match=name):
            fgmres(apply_K, lambda v: v, np.ones(4), **kwargs)
        assert not calls

    def test_zero_maxiter_returns_the_initial_guess(self):
        b = np.arange(1.0, 5.0)
        x, report = fgmres(lambda v: 2.0 * v, lambda v: v, b, maxiter=0)
        assert report.iterations == 0 and not report.converged
        assert report.reason == "maxiter"
        assert np.array_equal(x, np.zeros(4))


class TestLambdaMax:
    def test_diagonal_within_5_percent(self):
        D = np.diag([1.0, 2.0, 3.0])
        est = estimate_lambda_max(lambda v: D @ v, 3)
        assert abs(est - 3.0) <= 0.15

    def test_identity_exact(self):
        est = estimate_lambda_max(lambda v: v, 7)
        assert est == pytest.approx(1.0, abs=1e-14)

    def test_homogeneity(self):
        rng = np.random.default_rng(17)
        M = rng.standard_normal((8, 8))
        M = M @ M.T
        e1 = estimate_lambda_max(lambda v: M @ v, 8)
        e2 = estimate_lambda_max(lambda v: 3.5 * (M @ v), 8)
        assert e2 == pytest.approx(3.5 * e1, rel=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        M = rng.standard_normal((6, 6))
        e1 = estimate_lambda_max(lambda v: M @ v, 6)
        e2 = estimate_lambda_max(lambda v: M @ v, 6)
        assert e1 == e2

    def test_zero_operator_flagged(self):
        with pytest.warns(UserWarning, match="zero operator"):
            est = estimate_lambda_max(lambda v: 0.0 * v, 5)
        assert est == 0.0


class TestChebyshev:
    def test_identity_error_follows_polynomial(self):
        # With K = M = I and lambda_max = 1, the error after nu steps is the
        # degree-nu Chebyshev polynomial for [0.3, 1.1] evaluated at 1.
        b = np.array([2.0, -1.0, 4.0])
        theta, delta = 0.7, 0.4

        def cheb_t(n, s):
            t_prev, t = 1.0, s
            if n == 0:
                return t_prev
            for _ in range(n - 1):
                t_prev, t = t, 2 * s * t - t_prev
            return t

        for nu in (1, 2, 3, 6):
            x = chebyshev(lambda v: v, lambda v: v, b, nu, 1.0)
            factor = cheb_t(nu, (theta - 1.0) / delta) / cheb_t(nu, theta / delta)
            assert np.allclose(x, (1.0 - factor) * b, atol=1e-13)

    def test_nu1_is_weighted_richardson(self):
        rng = np.random.default_rng(23)
        K = np.diag(rng.uniform(0.5, 2.0, 6))
        b = rng.standard_normal(6)
        x0 = rng.standard_normal(6)
        lam = 2.0
        x = x0 + chebyshev(lambda v: K @ v, lambda v: v, b - K @ x0, 1, lam)
        omega = 2.0 / (1.4 * lam)
        expected = x0 + omega * (b - K @ x0)
        assert np.allclose(x, expected, atol=1e-14)

    def test_matches_scalar_recurrence_per_eigenvalue(self):
        # K = diag(0.4, 1), M = I, lambda_max = 1, nu = 3: the error factor in
        # each eigendirection is the shifted Chebyshev polynomial on
        # [0.3, 1.1] evaluated at that eigenvalue.
        eigs = np.array([0.4, 1.0])
        K = np.diag(eigs)
        nu, lam = 3, 1.0
        e0 = np.array([1.0, 1.0])
        x = e0 + chebyshev(lambda v: K @ v, lambda v: v, -K @ e0, nu, lam)

        low, high = 0.3 * lam, 1.1 * lam
        theta, delta = 0.5 * (high + low), 0.5 * (high - low)

        def cheb_t(n, s):
            t_prev, t = 1.0, s
            if n == 0:
                return t_prev
            for _ in range(n - 1):
                t_prev, t = t, 2 * s * t - t_prev
            return t

        factors = np.array([
            cheb_t(nu, (theta - t) / delta) / cheb_t(nu, theta / delta)
            for t in eigs
        ])
        assert np.allclose(x, factors * e0, atol=1e-12)

    def test_linearity_of_error_propagation(self):
        rng = np.random.default_rng(29)
        Q = rng.standard_normal((7, 7))
        K = Q @ Q.T + 7 * np.eye(7)
        lam = estimate_lambda_max(lambda v: K @ v, 7)
        e = rng.standard_normal(7)
        out1 = e + chebyshev(lambda v: K @ v, lambda v: v, -K @ e, 3, lam)
        out2 = 2.5 * e + chebyshev(lambda v: K @ v, lambda v: v,
                                   -K @ (2.5 * e), 3, lam)
        assert np.allclose(out2, 2.5 * out1, atol=1e-13 * np.abs(out1).max())

    def test_fallback_weight_on_bad_lambda(self):
        K = np.diag([1.0, 2.0])
        b = np.array([1.0, 1.0])
        x = chebyshev(lambda v: K @ v, lambda v: v, b, 1, 0.0)
        assert np.allclose(x, (2.0 / 3.0) * b, atol=1e-15)

    def test_reduces_error_on_spd(self):
        rng = np.random.default_rng(31)
        Q = rng.standard_normal((20, 20))
        K = Q @ Q.T + 20 * np.eye(20)
        lam = estimate_lambda_max(lambda v: K @ v, 20)
        xstar = rng.standard_normal(20)
        b = K @ xstar
        x = chebyshev(lambda v: K @ v, lambda v: v, b, 5, lam)
        assert np.linalg.norm(x - xstar) < 0.5 * np.linalg.norm(xstar)

    def test_rejects_nu_zero(self):
        with pytest.raises(ValueError):
            chebyshev(lambda v: v, lambda v: v, np.ones(2), 0, 1.0)
