"""Reference routes: extended-precision values and the scalar assembly.

Frozen constants were produced by the mpmath routines below at 60 digits;
the tests assert both that the implementation matches the frozen value and
that the frozen value still matches a fresh mpmath evaluation, so a stale
constant cannot hide.
"""

import math

import mpmath as mp
import numpy as np

from cpflow import hypgeom
from cpflow.errors import DegenerateFaceError, NumericalConsistencyError
from cpflow.laplacian import AB_CONSISTENCY_RTOL, validate_radii

mp.mp.dps = 60


def edge_length_mp(r_a, r_b, phi):
    r_a, r_b, phi = mp.mpf(r_a), mp.mpf(r_b), mp.mpf(phi)
    return mp.acosh(
        mp.cosh(r_a) * mp.cosh(r_b) + mp.cos(phi) * mp.sinh(r_a) * mp.sinh(r_b)
    )


def corner_angle_mp(lengths, t):
    la, lb, lo = lengths[(t + 1) % 3], lengths[(t + 2) % 3], lengths[t]
    return mp.acos(
        (mp.cosh(la) * mp.cosh(lb) - mp.cosh(lo)) / (mp.sinh(la) * mp.sinh(lb))
    )


def triangle_angles_mp(radii, weights):
    lengths = [
        edge_length_mp(radii[(t + 1) % 3], radii[(t + 2) % 3], weights[t])
        for t in range(3)
    ]
    return [corner_angle_mp(lengths, t) for t in range(3)]


# edge_length(1.0, 2.0, pi/3)
EDGE_LENGTH_1_2_PI3 = 2.7606288199639016

# corner angle of the unit-radius equilateral packing, tangency weights
THETA_EQUILATERAL_R1_W0 = 0.6599664042157994

# corner angle of the unit-radius equilateral packing, orthogonal weights
THETA_EQUILATERAL_R1_WPI2 = 0.7894469382770259

# u(1) = ln tanh(1/2)
U_OF_R1 = -0.7719368329053047

# zero-curvature packing of the minimal genus-2 mesh (center, rim radii)
GENUS2_FLAT_RC = 0.9198815281970776
GENUS2_FLAT_RV = 1.5285709194809982

# radius decay envelope at (r0=1, c=14*pi, t=0.1)
DECAY_CURVE_1_14PI_01 = 0.011367366692953467

# constrained grid minimum of the cosine-triple expression, c=-0.7, n=50
COSINE_GRID_MIN_C07_N50 = 0.9000000000000001


# -- scalar reference assembly ---------------------------------------------------
#
# The independent route for the numpy face kernel of `cpflow.laplacian`:
# one `hypgeom` evaluation per face, scalar accumulation in ascending face
# id, corner by corner.

def face_packing(mesh, r, fid):
    f = mesh.faces[fid]
    radii = tuple(float(r[v]) for v in f.corners)
    return hypgeom.TrianglePacking(radii, mesh.face_weights(fid))


def curvature_loop(mesh, r):
    """K_i = 2 pi minus the cone angle at vertex i, face by face."""
    r = validate_radii(mesh, r)
    cone = np.zeros(mesh.vertex_count)
    for fid in range(mesh.face_count):
        try:
            geom = hypgeom.triangle_geometry(face_packing(mesh, r, fid))
        except DegenerateFaceError as exc:
            raise DegenerateFaceError(f"face {fid}: {exc}") from exc
        for t, v in enumerate(mesh.faces[fid].corners):
            cone[v] += geom.angles[t]
    return 2.0 * math.pi - cone


def assemble_loop(mesh, r):
    """(K, B, A, L) face by face, with the A/B consistency check."""
    r = validate_radii(mesh, r)
    n, ne = mesh.vertex_count, mesh.edge_count
    wm1 = np.zeros(ne)
    for eid, e in enumerate(mesh.edges):
        wm1[eid] = hypgeom.cosh_length_minus_one(r[e.a], r[e.b], e.phi)
    cone = np.zeros(n)
    B = np.zeros(ne)
    a_direct = np.zeros(n)
    for fid in range(mesh.face_count):
        f = mesh.faces[fid]
        tp = face_packing(mesh, r, fid)
        try:
            geom = hypgeom.triangle_geometry(tp)
            J = hypgeom.angle_jacobian(tp, geom)
        except DegenerateFaceError as exc:
            raise DegenerateFaceError(f"face {fid}: {exc}") from exc
        for t in range(3):
            cone[f.corners[t]] += geom.angles[t]
            t1, t2 = (t + 1) % 3, (t + 2) % 3
            B[f.edges[t]] += J[t1, t2]
            for s in (t1, t2):
                a_direct[f.corners[t]] += J[s, t] * wm1[f.edges[3 - t - s]]
    K = 2.0 * math.pi - cone
    A = np.zeros(n)
    for eid, e in enumerate(mesh.edges):
        contrib = B[eid] * wm1[eid]
        A[e.a] += contrib
        A[e.b] += contrib
    for i in range(n):
        if abs(a_direct[i] - A[i]) / (1.0 + abs(A[i])) > AB_CONSISTENCY_RTOL:
            raise NumericalConsistencyError(f"vertex {i}: A routes disagree")
    L = np.zeros((n, n))
    for eid, e in enumerate(mesh.edges):
        if e.a == e.b:
            continue
        L[e.a, e.a] += B[eid]
        L[e.b, e.b] += B[eid]
        L[e.a, e.b] -= B[eid]
        L[e.b, e.a] -= B[eid]
    L[np.diag_indices(n)] += A
    return K, B, A, L


def apply_p_delta_loop(mesh, B, A, f, p):
    """p-th discrete Laplacian edge by edge; a zero difference adds 0."""
    out = -A * f
    for eid, e in enumerate(mesh.edges):
        if e.a == e.b:
            continue
        d = f[e.b] - f[e.a]
        if d != 0.0:
            w = B[eid] * abs(d) ** (p - 2.0) * d
            out[e.a] += w
            out[e.b] -= w
    return out
