"""Dense test oracles shared by the solver tests and the acceptance gate.

The gradients of the smooth cost from the dense system matrices, central
finite differences, and a monkeypatch that turns every CG into an exact
solve.  Import it as ``oracles``: pytest puts this directory on the path of
the test modules beside it.
"""

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
    term, an exact solve; the exact U2 solve is then chosen against
    ``steps`` CG steps."""
    monkeypatch.setattr(lrtvar.solver, "CG_MAX_STEPS", steps)
    monkeypatch.setattr(lrtvar.solver, "CG_TOL", 1e-13)
    monkeypatch.setattr(lrtvar.solver, "CG_FORCING", 0.0)
