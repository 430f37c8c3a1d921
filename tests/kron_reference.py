"""Dense Kronecker assembly of the Galerkin operators, the reference for the
stored diagonals and sine blocks: every form is separable, so each matrix is
a Kronecker product of full 1-D Grams (m-major index i = (m - 1) Ny + k)."""

import numpy as np


def dense_operators(grid, sigma):
    """Dense M, K, Gx, Gy = (d_y phi_i, d_y phi_j) and Dy = (d_y phi_i, phi_j).

    K is the plate form a(u, v) = int u_xx v_xx + u_yy v_yy
    + sigma (u_xx v_yy + u_yy v_xx) + 2 (1 - sigma) u_xy v_xy.
    """
    def gx(fa, fb):
        return (fa * grid.x_weights) @ fb.T

    def gy(fa, fb):
        return (fa * grid.y_weights) @ fb.T

    X_ss, X_s2s = gx(grid.sx, grid.sx), gx(grid.d2sx, grid.sx)
    Y_ll, Y_ll2 = gy(grid.ly, grid.ly), gy(grid.ly, grid.d2ly)
    K = (np.kron(gx(grid.d2sx, grid.d2sx), Y_ll) + np.kron(X_ss, gy(grid.d2ly, grid.d2ly))
         + sigma * (np.kron(X_s2s, Y_ll2) + np.kron(X_s2s.T, Y_ll2.T))
         + 2.0 * (1.0 - sigma) * np.kron(gx(grid.dsx, grid.dsx), gy(grid.dly, grid.dly)))
    out = {"M": np.kron(X_ss, Y_ll), "K": K, "Gx": np.kron(gx(grid.dsx, grid.dsx), Y_ll),
           "Gy": np.kron(X_ss, gy(grid.dly, grid.dly))}
    out = {name: 0.5 * (A + A.T) for name, A in out.items()}
    out["Dy"] = np.kron(X_ss, gy(grid.dly, grid.ly))
    return out
