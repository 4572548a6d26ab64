"""Curvature, edge/vertex coefficients and the curvature Jacobian.

The Jacobian L = dK/du is assembled per edge: B_e sums the two adjacent
faces' cross derivatives, A_i = sum of B_e (cosh l_e - 1) over the edge
ends at i. A loop edge (both ends at the same vertex) contributes to A_i
twice and to nothing else: its difference term in the operator vanishes
identically, which is the only extension consistent with dK/du on
non-simplicial meshes.

`curvature` and `assemble` evaluate every face in one numpy pass. The pass
repeats the shifted identities of `hypgeom` operation for operation, on
index arrays built once per mesh on first use, and scatters into K, B and A
with `np.bincount` in the order a loop over faces would accumulate, so runs
are bitwise reproducible. The dense n x n `LaplacianAssembly.L` is built
only when it is first read; the flow never reads it. `hypgeom` is the
per-triangle route, for the single-triangle suites and as the tests'
independent oracle.
"""

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import (
    DegenerateFaceError,
    NumericalConsistencyError,
    RadiusOverflowError,
    StarConditionError,
)
from .hypgeom import A_NORM_FLOOR, RADIUS_CAP
from .mesh import WeightedTriangulation

AB_CONSISTENCY_RTOL = 1e-9

# rows of a per-corner (3, F) array: corner t + 1 and t + 2 (mod 3), and
# the corner pair (a, b), a < b, opposite corner t
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])
_PAIR_A = np.array([1, 0, 0])
_PAIR_B = np.array([2, 2, 1])


def validate_radii(mesh: WeightedTriangulation, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != (mesh.vertex_count,):
        raise ValueError(
            f"radii shape {r.shape} != ({mesh.vertex_count},)"
        )
    ok = (r > 0.0) & (r <= RADIUS_CAP)      # false at nan
    if not ok.all():
        bad = int(np.argmin(ok))
        raise RadiusOverflowError(
            f"radius at vertex {bad} = {r[bad]!r} outside (0, {RADIUS_CAP}]"
        )
    return r


def u_of_r(r) -> np.ndarray:
    """u = ln tanh(r/2), computed as log1p(-2/(e^r + 1)) so values stay
    accurate out to the 700 radius cap."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0) or np.any(r > RADIUS_CAP) or not np.all(np.isfinite(r)):
        raise RadiusOverflowError("radii must lie in (0, 700]")
    return np.log1p(-2.0 / (np.exp(r) + 1.0))


def r_of_u(u) -> np.ndarray:
    """Inverse of u_of_r; requires every entry < 0."""
    u = np.asarray(u, dtype=float)
    if np.any(u >= 0.0) or not np.all(np.isfinite(u)):
        raise ValueError("u entries must be finite and negative")
    return np.log1p(np.exp(u)) - np.log(-np.expm1(u))


# -- per-mesh arrays ---------------------------------------------------------

_ARRAYS = weakref.WeakKeyDictionary()   # meshes are immutable


def _mesh_arrays(mesh):
    arrays = _ARRAYS.get(mesh)
    if arrays is None:
        arrays = _ARRAYS[mesh] = _build_arrays(mesh)
    return arrays


def _build_arrays(mesh):
    """Index and weight arrays of a mesh. Per-corner arrays are (3, F): row
    t holds corner t of every face. The scatter indices list the corners
    face by face, the order of a loop over faces."""
    corner_ids = np.array([f.corners for f in mesh.faces], dtype=np.intp)
    edge_ids = np.array([f.edges for f in mesh.faces], dtype=np.intp)
    corners, edges = np.ascontiguousarray(corner_ids.T), np.ascontiguousarray(edge_ids.T)
    ends = np.array([(e.a, e.b) for e in mesh.edges], dtype=np.intp)
    phi = np.array([e.phi for e in mesh.edges])
    g = np.cos(phi).take(edges)
    gammas = g + g.take(_NEXT, axis=0) * g.take(_PREV, axis=0)
    bad = np.argwhere(gammas.T < 0.0)
    star = ""
    if len(bad):
        fid, t = bad[0]
        star = (f"face {fid} corner {t}: corner condition fails, "
                f"gamma {float(gammas[t, fid])!r}")
    nonloop = np.flatnonzero(ends[:, 0] != ends[:, 1])
    links = ends[nonloop]
    return SimpleNamespace(
        corners=corners,                    # (3, F) vertex ids
        edges=edges,                        # (3, F) edge ids, edge t opposite corner t
        corner_ids=corner_ids.ravel(),      # (3F,) vertex ids, face by face
        edge_ids=edge_ids.ravel(),          # (3F,) edge ids, face by face
        ends=ends,                          # (E, 2) edge endpoints
        cos_half=np.cos(0.5 * phi),
        sin_half=np.sin(0.5 * phi),
        one_minus_g2=1.0 - g * g,           # (3, F), g = cos of the opposite weight
        gammas=gammas,                      # (3, F) corner values of the star condition
        star_violation=star,                # names the first corner with gamma < 0
        nonloop=nonloop,                    # ids of the edges with two distinct ends
        links=links,                        # (E', 2) their endpoints
        loop_edges=tuple(int(e) for e in np.flatnonzero(ends[:, 0] == ends[:, 1])),
        # -A f first, then the ends of each link: the order of an edge loop
        apply_index=np.concatenate((np.arange(mesh.vertex_count), links.ravel())),
    )


# -- the face kernel ---------------------------------------------------------

def _require(ok, error, what):
    """Raise error naming the first face (last axis of ok) where ok fails."""
    if not ok.all():
        fid = int(np.argmin(ok.reshape(-1, ok.shape[-1]).all(axis=0)))
        raise error(f"face {fid}: {what}")


def _face_kernel(mesh, r, with_jacobian):
    """K, and optionally the angle derivatives, over all faces at once.

    Returns (arrays, wm1, K, jac): wm1 is cosh l - 1 per edge, and jac
    (3, F) holds d theta_a / d u_b for the corner pair (a, b), a < b,
    opposite each corner, or None. The checks are those of
    `hypgeom.triangle_geometry` and `hypgeom.angle_jacobian`, plus a
    finiteness check where a double overflows into nan.
    """
    arrays = _mesh_arrays(mesh)
    edges = arrays.edges
    ra, rb = r.take(arrays.ends[:, 0]), r.take(arrays.ends[:, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        cp = arrays.cos_half * np.sinh(0.5 * (ra + rb))
        sm = arrays.sin_half * np.sinh(0.5 * (ra - rb))
        wm1 = 2.0 * cp * cp + 2.0 * sm * sm
        _require(np.isfinite(wm1.take(edges)), RadiusOverflowError,
                 "radii overflow cosh of an edge length")
        sinh_l = np.where(wm1 > 1.0, wm1 * np.sqrt(1.0 + 2.0 / wm1),
                          np.sqrt(wm1 * (wm1 + 2.0)))
        length = np.log1p(wm1 + sinh_l).take(edges)
        shl = sinh_l.take(edges)

        # half perimeter and its excesses; positivity is the triangle inequality
        s = 0.5 * (length[0] + length[1] + length[2])
        excess = 0.5 * (length.take(_NEXT, axis=0) + length.take(_PREV, axis=0) - length)
        _require(excess > 0.0, DegenerateFaceError, "triangle inequality fails")
        sinh_s = np.sinh(s)
        _require(np.isfinite(sinh_s), RadiusOverflowError, "perimeter overflows sinh")
        sinh_exc = np.sinh(excess)
        # 1 - cos and 1 + cos of the corner angles, nonnegative products
        den = shl.take(_NEXT, axis=0) * shl.take(_PREV, axis=0)
        delta = 2.0 * sinh_exc.take(_NEXT, axis=0) * sinh_exc.take(_PREV, axis=0) / den
        sigma = 2.0 * sinh_s * sinh_exc / den
        angles = np.arctan2(np.sqrt(delta * sigma), 0.5 * (sigma - delta))
        _require(np.isfinite(angles), RadiusOverflowError, "radii overflow the corner angles")
        area = math.pi - angles[0] - angles[1] - angles[2]
        _require(area > 0.0, DegenerateFaceError, "nonpositive area")
        cone = np.bincount(arrays.corner_ids, angles.T.ravel(), minlength=mesh.vertex_count)
        K = 2.0 * math.pi - cone
        if not with_jacobian:
            return arrays, wm1, K, None
        if arrays.star_violation:
            raise StarConditionError(arrays.star_violation)

        # pair derivatives: hypgeom._numerator over a_norm sinh^2 l_ab
        a_norm = 2.0 * np.sqrt(sinh_s * sinh_exc[0] * sinh_exc[1] * sinh_exc[2])
        S, C = np.sinh(r).take(arrays.corners), np.cosh(r).take(arrays.corners)
        sa, sb = S.take(_PAIR_A, axis=0), S.take(_PAIR_B, axis=0)
        gam = arrays.gammas
        num = (
            C * sa * sa * sb * sb * arrays.one_minus_g2
            + C.take(_PAIR_A, axis=0) * sa * sb * sb * S * gam.take(_PAIR_B, axis=0)
            + C.take(_PAIR_B, axis=0) * sa * sa * sb * S * gam.take(_PAIR_A, axis=0)
        )
        den = a_norm * shl * shl
        _require(den >= A_NORM_FLOOR, DegenerateFaceError, "angle normalization below floor")
        jac = num / den
        _require(np.isfinite(jac), RadiusOverflowError, "radii overflow the angle derivatives")
    return arrays, wm1, K, jac


def curvature(mesh: WeightedTriangulation, r) -> np.ndarray:
    """K_i = 2 pi minus the cone angle at vertex i."""
    r = validate_radii(mesh, r)
    return _face_kernel(mesh, r, False)[2]


@dataclass
class LaplacianAssembly:
    mesh: WeightedTriangulation
    K: np.ndarray              # curvature per vertex
    B: np.ndarray              # per-edge coefficient
    A: np.ndarray              # per-vertex coefficient
    cosh_l: np.ndarray         # per-edge cosh of the edge length
    cosh_l_minus_1: np.ndarray
    ab_residual: float = 0.0   # max relative gap between the two A routes
    zero_b_edges: list = field(default_factory=list)
    loop_edges: tuple = ()

    @cached_property
    def L(self) -> np.ndarray:
        """Dense symmetric dK/du, built on first access.

        L_ij = -sum of B_e over the non-loop edges joining i and j, and
        L_ii = A_i + sum of B_e over the non-loop edges at i; each entry
        sums in ascending edge id, and both triangles are written from one
        sum, so L is exactly symmetric.
        """
        arrays = _mesh_arrays(self.mesh)
        n = self.mesh.vertex_count
        links = arrays.links
        b = self.B[arrays.nonloop]
        pairs, which = np.unique(links.min(axis=1) * n + links.max(axis=1), return_inverse=True)
        off = -np.bincount(which, b)
        i, j = np.divmod(pairs, n)
        L = np.zeros((n, n))
        L[i, j] = off
        L[j, i] = off
        L[np.diag_indices(n)] = np.bincount(links.ravel(), np.repeat(b, 2), minlength=n) + self.A
        return L


def assemble(mesh: WeightedTriangulation, r) -> LaplacianAssembly:
    """Build K, B and A at the given metric; L is built when first read.

    Accumulation runs in ascending face id, corner by corner, then edge id,
    so repeated runs are bitwise identical. A is stored from the edge-sum
    route and checked against the direct per-corner area-derivative route
    to 1e-9 relative.
    """
    r = validate_radii(mesh, r)
    arrays, wm1, K, jac = _face_kernel(mesh, r, True)
    n = mesh.vertex_count
    B = np.bincount(arrays.edge_ids, jac.T.ravel(), minlength=mesh.edge_count)
    # direct route for A: corner t gains d theta_s / d u_t times cosh l - 1
    # of the edge joining s and t, for s = t + 1 and then t + 2
    x = jac * wm1.take(arrays.edges)
    a_direct = np.bincount(
        np.repeat(arrays.corner_ids, 2),
        np.stack((x.take(_PREV, axis=0).T, x.take(_NEXT, axis=0).T), axis=2).ravel(),
        minlength=n)
    # edge-sum route; a loop edge adds to its vertex twice
    A = np.bincount(arrays.ends.ravel(), np.repeat(B * wm1, 2), minlength=n)
    rel = np.abs(a_direct - A) / (1.0 + np.abs(A))
    if np.any(rel > AB_CONSISTENCY_RTOL):
        i = int(np.argmax(rel > AB_CONSISTENCY_RTOL))
        raise NumericalConsistencyError(
            f"vertex {i}: area-derivative route {a_direct[i]!r} vs "
            f"edge-sum route {A[i]!r} disagree beyond 1e-9 relative"
        )
    return LaplacianAssembly(
        mesh=mesh, K=K, B=B, A=A,
        cosh_l=1.0 + wm1, cosh_l_minus_1=wm1,
        ab_residual=float(np.max(rel)),
        zero_b_edges=np.flatnonzero(B == 0.0).tolist(),
        loop_edges=arrays.loop_edges,
    )


def apply_delta(asm: LaplacianAssembly, f) -> np.ndarray:
    """Discrete Laplacian: (delta f)_i = sum_e B_e (f_j - f_i) - A_i f_i.

    Edge-sum form; equals -L f to rounding.
    """
    return apply_p_delta(asm, f, 2.0)


def apply_p_delta(asm: LaplacianAssembly, f, p: float) -> np.ndarray:
    """p-th discrete Laplacian; |0|^(p-2) * 0 is taken as 0 for every p > 1."""
    if not (p > 1.0):
        raise ValueError(f"p must exceed 1, got {p!r}")
    f = np.asarray(f, dtype=float)
    n = asm.mesh.vertex_count
    if f.shape != (n,):
        raise ValueError(f"vector shape {f.shape} != ({n},)")
    arrays = _mesh_arrays(asm.mesh)
    d = f.take(arrays.links[:, 1]) - f.take(arrays.links[:, 0])
    mag = np.abs(d)
    mag[d == 0.0] = 1.0         # keeps 0 ** (p - 2) from giving inf * 0 below p = 2
    w = asm.B.take(arrays.nonloop) * mag ** (p - 2.0) * d
    # -A_i f_i first, then +w at one end and -w at the other, edge by edge
    terms = np.concatenate((-asm.A * f, np.stack((w, -w), axis=1).ravel()))
    return np.bincount(arrays.apply_index, terms, minlength=n)


def calabi_energy(K) -> float:
    K = np.asarray(K, dtype=float)
    return float(np.dot(K, K))


def spd_check(asm: LaplacianAssembly):
    """(smallest eigenvalue of L, max |L - L^T| entry)."""
    sym_residual = float(np.max(np.abs(asm.L - asm.L.T)))
    eigvals = np.linalg.eigvalsh(asm.L)
    return float(eigvals[0]), sym_residual
