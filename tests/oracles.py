"""Dense test oracles shared by the solver, regularizer and acceptance tests.

The gradients of the smooth cost from the dense system matrices, central
finite differences, a monkeypatch that turns every CG into an exact solve,
and the dense solves the block updates are checked against: the Kronecker
system of U2, the Hadamard normal equations of the unsmoothed U3, and the
brute-force TV prox.  Import it as ``oracles``: pytest puts this directory
on the path of the test modules beside it.
"""

import itertools

import numpy as np

import lrtvar.solver


def dense_gradients(model, data, params):
    """[grad U1, grad U2, grad U3] of loss + ridge (+ the spline term), window
    by window from the dense system matrices A_k = model.slice(k): the loss
    gradient in A_k is G_k = (A_k X_k - Y_k) X_k', and A_k = U1 diag(U3[k]) U2'."""
    grads = [U / params.eta for U in (model.U1, model.U2, model.U3)]
    for k in range(model.T):
        X = data.X[:, :, k]
        G = (model.slice(k) @ X - data.Y[:, :, k]) @ X.T
        grads[0] += (G @ model.U2) * model.U3[k]
        grads[1] += (G.T @ model.U1) * model.U3[k]
        grads[2][k] += np.sum(model.U1 * (G @ model.U2), axis=0)
    if params.reg.kind == "spline":
        step = params.reg.beta * np.diff(model.U3, axis=0)
        grads[2][:-1] -= step
        grads[2][1:] += step
    return grads


def fd_gradient(func, mat, h=1e-5):
    """Central finite differences of a scalar function of one matrix."""
    g = np.zeros_like(mat)
    it = np.nditer(mat, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = mat[idx]
        mat[idx] = orig + h
        up = func()
        mat[idx] = orig - h
        down = func()
        mat[idx] = orig
        g[idx] = (up - down) / (2 * h)
        it.iternext()
    return g


def tight_cg(monkeypatch, steps=300):
    """Give every CG ``steps`` steps and a 1e-13 tolerance with no forcing
    term, which makes the U2 and spline U3 solves exact to rounding."""
    monkeypatch.setattr(lrtvar.solver, "CG_MAX_STEPS", steps)
    monkeypatch.setattr(lrtvar.solver, "CG_TOL", 1e-13)
    monkeypatch.setattr(lrtvar.solver, "CG_FORCING", 0.0)


def kron_system_right(model, data, eta):
    """(A, b) of the vectorized normal equations A vec(U2) = b for U2
    (column-major vec)."""
    N_in, R = model.N_in, model.R
    P = model.U1.T @ model.U1
    A = np.zeros((N_in * R, N_in * R))
    B = np.zeros((N_in, R))
    for k in range(data.T):
        Xk = data.X[:, :, k]
        Lk = Xk @ Xk.T
        d = model.U3[k]
        Rk = P * np.outer(d, d)
        A += np.kron(Rk.T, Lk)
        B += Xk @ data.Y[:, :, k].T @ (model.U1 * d)
    A += np.eye(N_in * R) / eta
    return A, B.flatten(order="F")


def kron_oracle_right(model, data, eta):
    """Dense solve of the vectorized normal equations for U2."""
    return np.linalg.solve(*kron_system_right(model, data, eta)).reshape((model.N_in, model.R), order="F")


def temporal_dense_oracle(model, data, eta):
    """Per-window dense Hadamard normal equations for the unsmoothed U3."""
    R = model.R
    P = model.U1.T @ model.U1
    U3 = np.zeros((data.T, R))
    for k in range(data.T):
        Gk = model.U2.T @ data.X[:, :, k]
        Lk = Gk @ Gk.T
        A = Lk * P + np.eye(R) / eta
        b = np.diag(model.U2.T @ data.X[:, :, k] @ data.Y[:, :, k].T @ model.U1)
        U3[k] = np.linalg.solve(A, b)
    return U3


def dense_diff_matrix(T):
    """Materialized (T-1) x T first-difference matrix: row k has +1 at k, -1 at k+1."""
    D = np.zeros((T - 1, T))
    for k in range(T - 1):
        D[k, k] = 1.0
        D[k, k + 1] = -1.0
    return D


def tv_prox_oracle(v, gamma, tol=1e-9):
    """Exact TV prox for small vectors via active-set enumeration of the dual.

    The dual is a box-constrained strictly convex quadratic in the T-1 edge
    variables s: min 1/2 s'DD's - s'Dv subject to |s_i| <= gamma, and the
    primal solution is u = v - D's.  Every on/off pattern of the box
    constraints is enumerated and checked against the KKT conditions.
    """
    v = np.asarray(v, dtype=float)
    T = v.shape[0]
    if gamma == 0.0 or T < 2:
        return v.copy()
    D = dense_diff_matrix(T)
    Q = D @ D.T
    b = D @ v
    m = T - 1
    for pattern in itertools.product((-1, 0, 1), repeat=m):
        pattern = np.array(pattern)
        s = np.where(pattern != 0, gamma * pattern, 0.0).astype(float)
        free = pattern == 0
        if free.any():
            rhs = b[free] - Q[np.ix_(free, ~free)] @ s[~free]
            s[free] = np.linalg.solve(Q[np.ix_(free, free)], rhs)
        if np.any(np.abs(s[free]) > gamma + tol):
            continue
        g = Q @ s - b
        if np.any(g[pattern == 1] > tol) or np.any(g[pattern == -1] < -tol):
            continue
        return v - D.T @ s
    raise AssertionError("no KKT-consistent active set found")
