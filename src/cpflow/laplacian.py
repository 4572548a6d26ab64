"""Curvature, edge/vertex coefficients and the curvature Jacobian.

The Jacobian L = dK/du is assembled per edge: B_e sums the two adjacent
faces' cross derivatives, A_i = sum of B_e (cosh l_e - 1) over the edge
ends at i. A loop edge (both ends at the same vertex) contributes to A_i
twice and to nothing else: its difference term in the operator vanishes
identically, which is the only extension consistent with dK/du on
non-simplicial meshes.

`curvature` and `assemble` evaluate the edge terms of `hypgeom` once per
edge, gather them to the faces on index arrays built once per mesh on
first use, evaluate all faces in one call of the `hypgeom` triangle
kernel, and scatter into K, B and A with `np.bincount` in the order a loop
over faces would accumulate, so runs are bitwise reproducible.

`LaplacianAssembly.entries` lists the nonzero pattern of L as COO triples
(rows, cols, vals), O(E) memory, built on first read. Every other view of
L reads it: the dense n x n `LaplacianAssembly.L` (built only when read;
the flow never reads it), the Lanczos matvec and the symmetry residual of
`spd_check`. Above SPD_DENSE_MAX vertices neither `spd_check` nor `cpflow
laplacian` allocates an n x n array.

`spd_check` takes the smallest eigenvalue of L from `np.linalg.eigvalsh`
on the dense L up to SPD_DENSE_MAX = 384 vertices, and above that from
Lanczos on the entry list, one `np.bincount` matvec per step.
Theorem 1 gives A_i > 0 and B_e >= 0, so L is a weighted graph Laplacian
plus a positive diagonal: a symmetric Z-matrix, whose lowest eigenvector
can be taken nonnegative (Perron-Frobenius) and so always overlaps the
ones vector that Lanczos starts from. The Lanczos value must lie in
[min A, sum A / n] (Weyl below, the Rayleigh quotient of 1 above). Each
Lanczos vector is orthogonalised against the whole basis twice: with one
classical Gram-Schmidt pass the basis loses orthogonality, and the values
were off by 40 to 600 lambda_max from n = 62 on.
"""

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from . import hypgeom
from .errors import NumericalConsistencyError, RadiusOverflowError, StarConditionError
from .hypgeom import NEXT, PREV, RADIUS_CAP
from .mesh import WeightedTriangulation

AB_CONSISTENCY_RTOL = 1e-9


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
    """Index arrays and the face weights of a mesh. Per-corner arrays are
    (3, F): row t holds corner t of every face. The scatter indices list
    the corners face by face, the order of a loop over faces."""
    corners, edges = np.ascontiguousarray(mesh.corners.T), np.ascontiguousarray(mesh.edge_ids.T)
    ends, phi = mesh.ends, mesh.phi
    # the radii are set per call with `with_radii`
    packing = hypgeom.TrianglePacking(np.ones(corners.shape), phi.take(edges))
    bad = np.argwhere(packing.gammas.T < 0.0)
    star = ""
    if len(bad):
        fid, t = bad[0]
        star = (f"face {fid} corner {t}: corner condition fails, "
                f"gamma {float(packing.gammas[t, fid])!r}")
    nonloop = np.flatnonzero(ends[:, 0] != ends[:, 1])
    links = ends[nonloop]
    # the terms of the direct route for A, face by face and corner by
    # corner: rows t + 2, then t + 1, of a (3, F) array, flattened
    F = mesh.face_count
    rows = np.stack((PREV, NEXT), axis=1)[None, :, :] * F + np.arange(F)[:, None, None]
    return SimpleNamespace(
        corners=corners,                    # (3, F) vertex ids
        edges=edges,                        # (3, F) edge ids, edge t opposite corner t
        corner_ids=mesh.corners.ravel(),    # (3F,) vertex ids, face by face
        edge_ids=mesh.edge_ids.ravel(),     # (3F,) edge ids, face by face
        a_direct_ids=np.repeat(mesh.corners.ravel(), 2),
        a_direct_terms=rows.ravel(),
        ends=ends,                          # (E, 2) edge endpoints
        half=hypgeom.half_angles(phi),      # cos and sin of half the edge weights
        packing=packing,                    # the face weights, (3, F)
        star_violation=star,                # names the first corner with gamma < 0
        nonloop=nonloop,                    # ids of the edges with two distinct ends
        links=links,                        # (E', 2) their endpoints
        loop_edges=tuple(int(e) for e in np.flatnonzero(ends[:, 0] == ends[:, 1])),
        # -A f first, then the ends of each link: the order of an edge loop
        apply_index=np.concatenate((np.arange(mesh.vertex_count), links.ravel())),
    )


_PATTERNS = weakref.WeakKeyDictionary()


def _entry_pattern(mesh):
    """(pair_of, rows, cols): the vertex pair (i, j), i < j, of each link,
    and the positions of the entries of L, each pair in both orientations
    and then the diagonal. Built on the first read of an entry list of the
    mesh, so the flow, which reads none, never pays for it."""
    pattern = _PATTERNS.get(mesh)
    if pattern is None:
        links = _mesh_arrays(mesh).links
        n = mesh.vertex_count
        pairs, pair_of = np.unique(links.min(axis=1) * n + links.max(axis=1), return_inverse=True)
        i, j = np.divmod(pairs, n)
        diag = np.arange(n)
        pattern = _PATTERNS[mesh] = (
            pair_of, np.concatenate((i, j, diag)), np.concatenate((j, i, diag)))
    return pattern


# -- the face kernel ---------------------------------------------------------

def _face_geometry(mesh, r):
    """Geometry of all faces at once, and K: the `hypgeom` kernel
    evaluates each edge once and every face in one call, and the angles
    are scattered into K. Returns (arrays, wm1, geom, K), wm1 the
    cosh l - 1 of each edge."""
    arrays = _mesh_arrays(mesh)
    ends = arrays.ends
    terms = hypgeom.edge_terms(r.take(ends[:, 0]), r.take(ends[:, 1]), arrays.half)
    geom = hypgeom.triangle_geometry(edges=tuple(x.take(arrays.edges) for x in terms))
    cone = np.bincount(arrays.corner_ids, geom.angles.T.ravel(), minlength=mesh.vertex_count)
    return arrays, terms[0], geom, 2.0 * math.pi - cone


def curvature(mesh: WeightedTriangulation, r) -> np.ndarray:
    """K_i = 2 pi minus the cone angle at vertex i."""
    r = validate_radii(mesh, r)
    return _face_geometry(mesh, r)[3]


@dataclass
class LaplacianAssembly:
    mesh: WeightedTriangulation
    K: np.ndarray              # curvature per vertex
    B: np.ndarray              # per-edge coefficient
    A: np.ndarray              # per-vertex coefficient
    cosh_l_minus_1: np.ndarray
    ab_residual: float = 0.0   # max relative gap between the two A routes
    zero_b_edges: list = field(default_factory=list)
    loop_edges: tuple = ()

    @cached_property
    def entries(self):
        """(rows, cols, vals): L in COO form, built on first access.

        One off-diagonal entry per orientation of each vertex pair joined
        by a non-loop edge, -(sum of B_e over those edges), then the
        diagonal, A_i + sum of B_e over the non-loop edges at i. Each value
        sums in ascending edge id, and both orientations of a pair carry
        the same value, so L is exactly symmetric. No (row, col) repeats.
        """
        arrays = _mesh_arrays(self.mesh)
        pair_of, rows, cols = _entry_pattern(self.mesh)
        n = self.mesh.vertex_count
        b = self.B.take(arrays.nonloop)
        off = -np.bincount(pair_of, b)
        diag = np.bincount(arrays.links.ravel(), np.repeat(b, 2), minlength=n) + self.A
        return rows, cols, np.concatenate((off, off, diag))

    @cached_property
    def L(self) -> np.ndarray:
        """Dense symmetric dK/du, built from `entries` on first access."""
        rows, cols, vals = self.entries
        n = self.mesh.vertex_count
        L = np.zeros((n, n))
        L[rows, cols] = vals
        return L


def assemble(mesh: WeightedTriangulation, r) -> LaplacianAssembly:
    """Build K, B and A at the given metric; L is built when first read.

    Accumulation runs in ascending face id, corner by corner, then edge id,
    so repeated runs are bitwise identical. A is stored from the edge-sum
    route and checked against the direct per-corner area-derivative route
    to 1e-9 relative.
    """
    r = validate_radii(mesh, r)
    arrays, wm1, geom, K = _face_geometry(mesh, r)
    if arrays.star_violation:
        raise StarConditionError(arrays.star_violation)
    # d theta_a / d u_b for the corner pair (a, b), a < b, opposite each corner
    jac = hypgeom.pair_derivative(
        arrays.packing.with_radii(r, arrays.corners), hypgeom.PAIR_A, hypgeom.PAIR_B, geom)
    n = mesh.vertex_count
    B = np.bincount(arrays.edge_ids, jac.T.ravel(), minlength=mesh.edge_count)
    # direct route for A: corner t gains d theta_s / d u_t times cosh l - 1
    # of the edge joining s and t, for s = t + 1 and then t + 2
    x = jac * geom.cosh_l_minus_1
    a_direct = np.bincount(arrays.a_direct_ids, x.ravel().take(arrays.a_direct_terms), minlength=n)
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
        cosh_l_minus_1=wm1,
        ab_residual=float(np.max(rel)),
        zero_b_edges=np.flatnonzero(B == 0.0).tolist(),
        loop_edges=arrays.loop_edges,
    )


def apply_p_delta(asm: LaplacianAssembly, f, p: float) -> np.ndarray:
    """p-th discrete Laplacian, (delta_p f)_i = sum_e B_e |f_j - f_i|^(p-2)
    (f_j - f_i) - A_i f_i; |0|^(p-2) * 0 is taken as 0 for every p > 1.
    At p = 2 it equals -L f to rounding."""
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


# spd_check runs eigvalsh on the dense L up to this many vertices, Lanczos
# above. Single-threaded on a 2-core x86-64 host, radii log-uniform in
# [0.1, 5], medians: dense is faster at n = 254 (3.6 against 7.4 ms), even
# at n = 384 (8.2 against 8.9 ms), Lanczos at n = 506 (8.9 against 15.6 ms)
# and n = 1022 (16 against 109 ms).
SPD_DENSE_MAX = 384
LANCZOS_CHECK_EVERY = 16
LANCZOS_RTOL = 1e-14        # Ritz residual, relative to the largest Ritz value
LANCZOS_BRACKET_RTOL = 1e-12


def spd_check(asm: LaplacianAssembly):
    """(smallest eigenvalue of L, max |L - L^T| entry).

    Both are read off `asm.entries`, so above SPD_DENSE_MAX vertices the
    check takes O(E) memory and builds no n x n array. The residual is
    `symmetry_residual` of the entry list. The eigenvalue comes from
    `np.linalg.eigvalsh(L)` on the dense L up to SPD_DENSE_MAX vertices,
    where dense is faster, and from `lanczos_min_eigenvalue` above:
    Lanczos from the ones vector (the Perron guess), two
    reorthogonalisation passes per step, and a check against
    [min A, sum A / n]; it agrees with eigvalsh to ~5e-15 lambda_max(L).
    """
    n = asm.mesh.vertex_count
    sym_residual = symmetry_residual(*asm.entries, n)
    if n <= SPD_DENSE_MAX:
        return float(np.linalg.eigvalsh(asm.L)[0]), sym_residual
    return lanczos_min_eigenvalue(asm), sym_residual


def symmetry_residual(rows, cols, vals, n) -> float:
    """max |L - L^T| over the n x n matrix L whose nonzero entries are the
    COO triples (rows, cols, vals), no (row, col) given twice.

    Each (r, c) is matched with (c, r) by sorting the entry keys and
    `searchsorted`; a missing transpose counts as 0. Entries absent in
    both orientations give 0, so the result equals the dense max |L - L^T|
    for any such L, in O(E log E) time and O(E) memory.
    """
    keys = rows * n + cols
    order = np.argsort(keys)
    ranked = keys.take(order)
    wanted = cols * n + rows
    at = np.minimum(np.searchsorted(ranked, wanted), len(ranked) - 1)
    transposed = np.where(ranked.take(at) == wanted, vals.take(order.take(at)), 0.0)
    return float(np.max(np.abs(vals - transposed)))


def _matvec(asm, x):
    """L x from the entry list: the matvec of `lanczos_min_eigenvalue`."""
    rows, cols, vals = asm.entries
    return np.bincount(rows, vals * x.take(cols), minlength=asm.mesh.vertex_count)


def lanczos_min_eigenvalue(asm: LaplacianAssembly) -> float:
    """Smallest eigenvalue of L by Lanczos on the entry list of L.

    Each step is one matvec on `asm.entries`; the dense L is not used.
    The basis starts at the normalised ones vector and grows with the
    step count; each new vector is orthogonalised against all of it by two
    classical Gram-Schmidt passes (see the module docstring for why both).
    Every LANCZOS_CHECK_EVERY steps the tridiagonal T is diagonalised, and
    the iteration stops once the Ritz residual |beta_k s_k1| is at most
    LANCZOS_RTOL times the largest Ritz value, when beta_k itself is that
    small (the Krylov space is invariant), or after n steps.

    Raises NumericalConsistencyError if the result lies outside
    [min A, sum A / n], widened by LANCZOS_BRACKET_RTOL times the largest
    Ritz value for rounding.
    """
    n = asm.mesh.vertex_count
    basis = np.empty((min(n, 2 * LANCZOS_CHECK_EVERY), n))
    basis[0] = 1.0 / math.sqrt(n)
    alpha, beta = [], []
    k = 0
    while True:
        w = _matvec(asm, basis[k])
        alpha.append(float(basis[k] @ w))
        q = basis[:k + 1]
        for _ in range(2):
            w -= (q @ w) @ q
        b = float(np.linalg.norm(w))
        k += 1
        # max(alpha) <= theta_max, so a beta this small (0 included) meets
        # the residual bound for every Ritz value: an invariant subspace
        done = k == n or b <= LANCZOS_RTOL * max(max(alpha), 0.0)
        if done or k % LANCZOS_CHECK_EVERY == 0:
            T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta, s = np.linalg.eigh(T)
            if done or abs(b * s[-1, 0]) <= LANCZOS_RTOL * theta[-1]:
                break
        beta.append(b)
        if k == len(basis):
            basis = np.concatenate((basis, np.empty((min(k, n - k), n))))
        basis[k] = w / b
    lam = float(theta[0])
    lo, hi = float(np.min(asm.A)), float(np.sum(asm.A)) / n
    slack = LANCZOS_BRACKET_RTOL * abs(float(theta[-1]))
    if not (lo - slack <= lam <= hi + slack):
        raise NumericalConsistencyError(
            f"Lanczos smallest eigenvalue {lam!r} after {k} steps lies outside "
            f"[min A, sum A / n] = [{lo!r}, {hi!r}]"
        )
    return lam
