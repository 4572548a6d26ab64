"""Reference curvature for the benchmark's checks, independent of cpflow.

Plain hyperbolic law of cosines in numpy: edge lengths from
cosh l = cosh r_a cosh r_b + cos(phi) sinh r_a sinh r_b, corner angles from
cos(theta_a) = (cosh l_b cosh l_c - cosh l_a) / (sinh l_b sinh l_c). None of
the program's shifted identities, Jacobians or solvers are used; the mesh
enters only as integer arrays and edge weights. Accurate to ~1e-13 for radii
in [0.1, 5], which is all the checks need.
"""

import numpy as np


class MeshArrays:
    """Corner vertex ids (F, 3), per-corner opposite-edge weights (F, 3)."""

    def __init__(self, vertex_count, corners, face_edges, phi):
        self.n = int(vertex_count)
        self.corners = np.asarray(corners, dtype=np.int64)
        self.cos_phi = np.cos(np.asarray(phi, dtype=float))[np.asarray(face_edges)]

    @classmethod
    def from_mesh(cls, m):
        return cls(
            m.vertex_count,
            [f.corners for f in m.faces],
            [f.edges for f in m.faces],
            [e.phi for e in m.edges],
        )


def u_of_r(r):
    return np.log(np.tanh(0.5 * np.asarray(r, dtype=float)))


def r_of_u(u):
    return 2.0 * np.arctanh(np.exp(np.asarray(u, dtype=float)))


def curvature(ma, r):
    """K_i = 2 pi - sum of the corner angles at vertex i."""
    r = np.asarray(r, dtype=float)
    rc = r[ma.corners]
    ch, sh = np.cosh(rc), np.sinh(rc)
    cosh_l = np.empty_like(rc)
    for t in range(3):
        a, b = (t + 1) % 3, (t + 2) % 3
        cosh_l[:, t] = ch[:, a] * ch[:, b] + ma.cos_phi[:, t] * sh[:, a] * sh[:, b]
    sinh_l = np.sqrt(cosh_l * cosh_l - 1.0)
    angles = np.empty_like(rc)
    for t in range(3):
        b, c = (t + 1) % 3, (t + 2) % 3
        cos_t = (cosh_l[:, b] * cosh_l[:, c] - cosh_l[:, t]) / (sinh_l[:, b] * sinh_l[:, c])
        angles[:, t] = np.arccos(np.clip(cos_t, -1.0, 1.0))
    cone = np.bincount(ma.corners.ravel(), weights=angles.ravel(), minlength=ma.n)
    return 2.0 * np.pi - cone


def directional_derivative(ma, r, v, h=1e-6):
    """Central difference of K along direction v in u = ln tanh(r/2)."""
    u = u_of_r(r)
    return (curvature(ma, r_of_u(u + h * v)) - curvature(ma, r_of_u(u - h * v))) / (2.0 * h)


def jacobian(ma, r, h=1e-6):
    """dK/du by central differences, one column per vertex."""
    eye = np.eye(ma.n)
    return np.column_stack([directional_derivative(ma, r, eye[j], h) for j in range(ma.n)])


def flat_radii(ma, r0, tol=1e-13, max_iter=60):
    """Radii with K = 0 by damped Newton on u, backtracking on sum K^2.

    The zero-curvature packing is unique, so this is an independent route to
    the limit of every curvature flow started anywhere.
    """
    u = u_of_r(r0)
    K = curvature(ma, r_of_u(u))
    energy = float(K @ K)
    for _ in range(max_iter):
        if np.max(np.abs(K)) <= tol:
            return r_of_u(u)
        du = np.linalg.solve(jacobian(ma, r_of_u(u)), K)
        step = 1.0
        while step > 1e-8:
            trial = u - step * du
            if np.all(trial < 0.0):
                K_trial = curvature(ma, r_of_u(trial))
                e_trial = float(K_trial @ K_trial)
                if np.isfinite(e_trial) and e_trial < energy:
                    u, K, energy = trial, K_trial, e_trial
                    break
            step *= 0.5
        else:
            break
    if np.max(np.abs(K)) <= tol:
        return r_of_u(u)
    raise RuntimeError(f"reference Newton stalled at max|K| = {np.max(np.abs(K))!r}")
