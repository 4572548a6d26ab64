"""Reference routes: extended-precision values, the scalar triangle, the
mesh validation loop, the scalar assembly and the per-metric mesh suites.

Frozen constants were produced by the mpmath routines below at 60 digits;
the tests assert both that the implementation matches the frozen value and
that the frozen value still matches a fresh mpmath evaluation, so a stale
constant cannot hide.
"""

import json
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from cpflow.errors import (
    DegenerateFaceError,
    MeshFormatError,
    MeshValidationError,
    NumericalConsistencyError,
    RadiusOverflowError,
    StarConditionError,
)
from cpflow import verify
from cpflow.hypgeom import A_NORM_FLOOR, RADIUS_CAP
from cpflow.laplacian import AB_CONSISTENCY_RTOL, assemble, validate_radii
from cpflow.mesh import Edge, Face, corner_gammas, simplicial_from_faces

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


# -- scalar reference triangle ------------------------------------------------------
#
# One triangle at a time in `math`: the independent route for the array
# kernel of `cpflow.hypgeom`. It returns nan where doubles overflow at
# radii from ~150 on, where the kernel raises RadiusOverflowError.

def _check_radius(r, label):
    if not math.isfinite(r) or not (0.0 < r <= RADIUS_CAP):
        raise RadiusOverflowError(f"radius {label} = {r!r} outside (0, {RADIUS_CAP}]")


def cosh_length_minus_one(r_a: float, r_b: float, phi: float) -> float:
    """cosh(edge length) - 1 as a sum of nonnegative terms.

    Equals cosh r_a cosh r_b + cos(phi) sinh r_a sinh r_b - 1 exactly; the
    shifted form never cancels, so both tiny radii and weights close to pi
    keep full precision (1 +/- cos phi enter as squared half-angle values).
    """
    cc = math.cos(0.5 * phi)
    ss = math.sin(0.5 * phi)
    sp = math.sinh(0.5 * (r_a + r_b))
    sm = math.sinh(0.5 * (r_a - r_b))
    return 2.0 * (cc * sp) * (cc * sp) + 2.0 * (ss * sm) * (ss * sm)


def _sinh_from_cosh_m1(w: float) -> float:
    """sinh(l) from w = cosh(l) - 1; the branched form never overflows
    before w itself does."""
    if w > 1.0:
        return w * math.sqrt(1.0 + 2.0 / w)
    return math.sqrt(w * (w + 2.0))


def edge_length(r_a: float, r_b: float, phi: float) -> float:
    """Hyperbolic distance between two packed circles with crossing angle phi."""
    _check_radius(r_a, "a")
    _check_radius(r_b, "b")
    w = cosh_length_minus_one(r_a, r_b, phi)
    if not math.isfinite(w):
        bad = "a" if r_a >= r_b else "b"
        raise RadiusOverflowError(
            f"radius {bad} = {max(r_a, r_b)!r} overflows cosh in edge length"
        )
    # arccosh(1 + w); the argument is >= 1 by construction, no clamp needed
    return math.log1p(w + _sinh_from_cosh_m1(w))


@dataclass(frozen=True)
class TrianglePacking:
    """Radii at the three corners and weights ordered opposite each corner."""

    radii: tuple
    weights: tuple
    _cos: tuple = field(init=False, repr=False, compare=False)
    _gammas: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.radii) != 3 or len(self.weights) != 3:
            raise ValueError("TrianglePacking needs three radii and three weights")
        for t, r in enumerate(self.radii):
            _check_radius(r, str(t))
        for t, w in enumerate(self.weights):
            if not (0.0 <= w < math.pi):
                raise ValueError(f"weight {t} = {w!r} outside [0, pi)")
        g = tuple(math.cos(w) for w in self.weights)
        object.__setattr__(self, "_cos", g)
        object.__setattr__(self, "_gammas", tuple(
            g[t] + g[(t + 1) % 3] * g[(t + 2) % 3] for t in range(3)))

    def cos_weights(self):
        return self._cos

    def gammas(self):
        return self._gammas

    def satisfies_star(self):
        return all(g >= 0.0 for g in self.gammas())


@dataclass(frozen=True)
class TriangleGeometry:
    lengths: tuple       # edge lengths, edge t opposite corner t
    angles: tuple        # inner angles at the corners
    area: float          # pi - sum of angles
    a_norm: float        # sinh l_ab sinh l_ac sin theta_a, corner independent
    cosh_l: tuple
    sinh_l: tuple
    cos_angles: tuple
    sin_angles: tuple


def triangle_geometry(tp: TrianglePacking) -> TriangleGeometry:
    """Lengths, angles and area of one packed hyperbolic triangle."""
    r, w = tp.radii, tp.weights
    wm1 = []
    for t in range(3):
        x = cosh_length_minus_one(r[(t + 1) % 3], r[(t + 2) % 3], w[t])
        if not math.isfinite(x):
            raise RadiusOverflowError(
                f"radii {r!r} overflow cosh on edge opposite corner {t}"
            )
        wm1.append(x)
    lengths = tuple(math.log1p(x + _sinh_from_cosh_m1(x)) for x in wm1)
    cosh_l = tuple(1.0 + x for x in wm1)
    sinh_l = tuple(_sinh_from_cosh_m1(x) for x in wm1)

    # half perimeter and its excesses; positivity is the triangle inequality
    s = 0.5 * (lengths[0] + lengths[1] + lengths[2])
    excess = []
    for t in range(3):
        e = 0.5 * (lengths[(t + 1) % 3] + lengths[(t + 2) % 3] - lengths[t])
        if e <= 0.0:
            raise DegenerateFaceError(
                f"triangle inequality fails on edge {t}: half-excess {e!r}"
            )
        excess.append(e)
    try:
        sinh_s = math.sinh(s)
    except OverflowError:       # math.sinh raises where numpy gives inf
        sinh_s = math.inf
    if not math.isfinite(sinh_s):
        raise RadiusOverflowError(f"perimeter {2 * s!r} overflows sinh")
    sinh_exc = [math.sinh(e) for e in excess]

    cos_a, sin_a, angles = [], [], []
    for t in range(3):
        den = sinh_l[(t + 1) % 3] * sinh_l[(t + 2) % 3]
        # 1 - cos and 1 + cos of the corner angle, each a nonnegative product
        delta = 2.0 * sinh_exc[(t + 1) % 3] * sinh_exc[(t + 2) % 3] / den
        sigma = 2.0 * sinh_s * sinh_exc[t] / den
        c = 0.5 * (sigma - delta)
        sn = math.sqrt(delta * sigma)
        cos_a.append(c)
        sin_a.append(sn)
        angles.append(math.atan2(sn, c))
    area = math.pi - angles[0] - angles[1] - angles[2]
    if area <= 0.0:
        raise DegenerateFaceError(f"nonpositive area {area!r}")
    # law of sines: sinh l_ab sinh l_ac sin theta_a is the same at every
    # corner and equals 2 sqrt(sinh s * prod sinh(s - l_t))
    a_norm = 2.0 * math.sqrt(sinh_s * sinh_exc[0] * sinh_exc[1] * sinh_exc[2])
    return TriangleGeometry(
        lengths, tuple(angles), area, a_norm,
        cosh_l, sinh_l, tuple(cos_a), tuple(sin_a),
    )


def _numerator(tp, a, b):
    """Numerator of d theta_a / d u_b; all three terms are >= 0 under the
    corner condition, so the sum never cancels."""
    c = 3 - a - b
    g = tp.cos_weights()
    gam = tp.gammas()
    S = [math.sinh(x) for x in tp.radii]
    C = [math.cosh(x) for x in tp.radii]
    return (
        C[c] * S[a] * S[a] * S[b] * S[b] * (1.0 - g[c] * g[c])
        + C[a] * S[a] * S[b] * S[b] * S[c] * gam[b]
        + C[b] * S[a] * S[a] * S[b] * S[c] * gam[a]
    )


def pair_derivative(tp, a, b, geom=None, use_delta=False):
    """d theta_a / d u_b (a != b) from the closed form with roles (a, b).

    The default denominator is a_norm * sinh^2 l_ab; with use_delta=True it
    is sqrt(delta_invariant) * sinh^2 l_ab, the discriminant representation.
    The two are not assumed equal; the identities suite certifies their
    agreement to 1e-9.
    """
    if geom is None:
        geom = triangle_geometry(tp)
    c = 3 - a - b
    sinh_lab = geom.sinh_l[c]
    scale = math.sqrt(delta_invariant(tp)) if use_delta else geom.a_norm
    den = scale * sinh_lab * sinh_lab
    if not (den >= A_NORM_FLOOR):
        raise DegenerateFaceError(
            f"angle normalization {scale!r} below floor for pair ({a},{b})"
        )
    return _numerator(tp, a, b) / den


def delta_invariant(tp: TrianglePacking) -> float:
    """Symmetric discriminant of the face; every term is nonnegative under
    the corner condition, so the direct evaluation is stable at all radii."""
    g = tp.cos_weights()
    S = [math.sinh(x) for x in tp.radii]
    C = [math.cosh(x) for x in tp.radii]
    g0, g1, g2 = g
    S0, S1, S2 = S
    C0, C1, C2 = C
    # weights: g0 opposite corner 0 (edge 12), g1 opposite 1 (edge 02),
    # g2 opposite 2 (edge 01)
    return (
        (2.0 + 2.0 * g0 * g1 * g2) * S0 * S0 * S1 * S1 * S2 * S2
        + (1.0 - g2 * g2) * S0 * S0 * S1 * S1
        + (1.0 - g0 * g0) * S1 * S1 * S2 * S2
        + (1.0 - g1 * g1) * S0 * S0 * S2 * S2
        + (2.0 * g2 + 2.0 * g0 * g1) * C0 * C1 * S0 * S1 * S2 * S2
        + (2.0 * g0 + 2.0 * g1 * g2) * C1 * C2 * S1 * S2 * S0 * S0
        + (2.0 * g1 + 2.0 * g0 * g2) * C0 * C2 * S0 * S2 * S1 * S1
    )


def angle_jacobian(tp: TrianglePacking, geom: TriangleGeometry = None) -> np.ndarray:
    """3x3 matrix J[a][b] = d theta_a / d u_b in the coordinates
    u = ln tanh(r/2).

    Each unordered pair is evaluated once and mirrored, so J is symmetric
    by construction; diagonals come from the length-weighted row identity
    J[a][a] = -sum_b cosh(l_ab) J[a][b].
    """
    if not tp.satisfies_star():
        raise StarConditionError(f"corner condition fails for weights {tp.weights!r}")
    if geom is None:
        geom = triangle_geometry(tp)
    J = np.zeros((3, 3))
    for a in range(3):
        for b in range(a + 1, 3):
            v = pair_derivative(tp, a, b, geom)
            J[a, b] = J[b, a] = v
    for a in range(3):
        o1, o2 = (a + 1) % 3, (a + 2) % 3
        J[a, a] = -geom.cosh_l[3 - a - o1] * J[a, o1] - geom.cosh_l[3 - a - o2] * J[a, o2]
    return J


# -- meshes -----------------------------------------------------------------------

def validate_loop(vertex_count, edges, faces):
    """The mesh invariants, checked one Edge and Face object at a time:
    the reference for the class and message of the first violation that
    `WeightedTriangulation` reports."""
    n, ne = vertex_count, len(edges)
    if n <= 0:
        raise MeshValidationError("vertex count must be positive")
    if ne == 0 or not faces:
        raise MeshValidationError("mesh needs at least one edge and one face")
    for eid, e in enumerate(edges):
        if not (0 <= e.a < n and 0 <= e.b < n):
            raise MeshValidationError(f"edge {eid} endpoint out of range")
        if not (0.0 <= e.phi < math.pi):
            raise MeshValidationError(f"edge {eid} weight {e.phi!r} outside [0, pi)")
    for fid, f in enumerate(faces):
        if len(f.corners) != 3 or len(f.edges) != 3:
            raise MeshValidationError(f"face {fid} is not a triangle")
        for v in f.corners:
            if not (0 <= v < n):
                raise MeshValidationError(f"face {fid} corner out of range")
        for t in range(3):
            eid = f.edges[t]
            if not (0 <= eid < ne):
                raise MeshValidationError(f"face {fid} edge id out of range")
            e = edges[eid]
            want = sorted((f.corners[(t + 1) % 3], f.corners[(t + 2) % 3]))
            if sorted((e.a, e.b)) != want:
                raise MeshValidationError(
                    f"face {fid} corner {t}: opposite edge {eid} endpoints "
                    f"{sorted((e.a, e.b))} do not match corners {want}"
                )
    count = [0] * ne
    for f in faces:
        for eid in f.edges:
            count[eid] += 1
    for eid, c in enumerate(count):
        if c != 2:
            raise MeshValidationError(f"edge {eid} not in exactly two faces (found {c})")
    if n > 3 * len(faces):
        raise MeshValidationError(f"vertex count {n} above 3 per face: a vertex is in no face")
    seen = [False] * n
    for f in faces:
        for v in f.corners:
            seen[v] = True
    for v, s in enumerate(seen):
        if not s:
            raise MeshValidationError(f"vertex {v} appears in no face")


def load_mesh_loop(text):
    """(vertex count, edges, faces) of a mesh file: the file format parsed
    into Edge and Face objects, then `validate_loop`."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MeshFormatError(f"mesh file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MeshFormatError("mesh file must be a JSON object")
    for key in ("vertices", "edges", "faces"):
        if key not in doc:
            raise MeshFormatError(f"mesh file missing '{key}'")
    n = doc["vertices"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise MeshFormatError("'vertices' must be an integer")
    rows = doc["edges"]
    if not isinstance(rows, list):
        raise MeshFormatError("'edges' must be a list")
    by_id = {}
    for row in rows:
        if not (isinstance(row, list) and len(row) == 4):
            raise MeshFormatError(f"edge row {row!r} must be [id, a, b, phi]")
        eid, a, b, phi = row
        ids_ok = all(isinstance(x, int) and not isinstance(x, bool) for x in (eid, a, b))
        if not (ids_ok and type(phi) in (int, float)):
            raise MeshFormatError(f"edge row {row!r} needs integer ids and a numeric weight")
        if eid in by_id:
            raise MeshFormatError(f"duplicate edge id {eid}")
        try:
            by_id[eid] = Edge(a, b, float(phi))
        except OverflowError:
            by_id[eid] = Edge(a, b, math.inf if phi > 0 else -math.inf)
    if sorted(by_id) != list(range(len(by_id))):
        raise MeshFormatError("edge ids must be dense integers from 0")
    edges = [by_id[i] for i in range(len(by_id))]
    faces = []
    frows = doc["faces"]
    if not isinstance(frows, list):
        raise MeshFormatError("'faces' must be a list")
    for row in frows:
        if not (isinstance(row, list) and len(row) == 6):
            raise MeshFormatError(f"face row {row!r} must be [v0, v1, v2, e0, e1, e2]")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in row):
            raise MeshFormatError(f"face row {row!r} has non-integer ids")
        faces.append(Face(tuple(row[:3]), tuple(row[3:])))
    validate_loop(n, edges, faces)
    return n, edges, faces


def torus_grid(p, q, weight=0.0):
    """The p x q grid on the torus, each square cut along its diagonal:
    V = pq, E = 3pq, F = 2pq, every vertex of degree 6, connected."""
    def v(i, j):
        return (i % p) * q + j % q
    faces = []
    for i in range(p):
        for j in range(q):
            faces += [(v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                      (v(i, j), v(i + 1, j + 1), v(i, j + 1))]
    return simplicial_from_faces(p * q, faces, weight)


# -- scalar reference assembly ---------------------------------------------------
#
# The independent route for the mesh kernel of `cpflow.laplacian`: one
# scalar triangle evaluation per face, scalar accumulation in ascending
# face id, corner by corner.

def face_packing(mesh, r, fid):
    f = mesh.faces[fid]
    radii = tuple(float(r[v]) for v in f.corners)
    return TrianglePacking(radii, mesh.face_weights(fid))


def curvature_loop(mesh, r):
    """K_i = 2 pi minus the cone angle at vertex i, face by face."""
    r = validate_radii(mesh, r)
    cone = np.zeros(mesh.vertex_count)
    for fid in range(mesh.face_count):
        try:
            geom = triangle_geometry(face_packing(mesh, r, fid))
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
        wm1[eid] = cosh_length_minus_one(r[e.a], r[e.b], e.phi)
    cone = np.zeros(n)
    B = np.zeros(ne)
    a_direct = np.zeros(n)
    for fid in range(mesh.face_count):
        f = mesh.faces[fid]
        tp = face_packing(mesh, r, fid)
        try:
            geom = triangle_geometry(tp)
            J = angle_jacobian(tp, geom)
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


# -- per-metric mesh suites ----------------------------------------------------------
#
# The loops `cpflow.verify` batched: rejection sampling one try at a time,
# and one assembly per sampled metric. The batched sampler and suites must
# reproduce them bit for bit.

def sample_star_mesh_weights_loop(mesh, rng, max_tries=1_000_000):
    """Per-edge weights uniform on [0, pi), rejected until every face
    satisfies the corner condition."""
    for _ in range(max_tries):
        phis = rng.uniform(0.0, math.pi, mesh.edge_count)
        if all(min(corner_gammas(tuple(phis[e] for e in f.edges))) >= 0.0 for f in mesh.faces):
            return mesh.with_weights(phis)
    raise RuntimeError("weight rejection sampling did not terminate")


def sweep_floor_bounds_loop(mesh, r_floor, samples, seed, label=""):
    """Certify a1 <= A_i <= a2 and 0 <= B_e <= a3 for radii in
    [r_floor, r_floor + 5], including the floor itself."""
    rep = verify.SweepReport("theorem1", seed, samples)
    consts = verify.floor_bound_constants(mesh, r_floor)
    n = mesh.vertex_count
    metrics = [("boundary", np.full(n, r_floor))]
    for i in range(samples):
        rng = verify.sample_rng(seed, i)
        metrics.append((i, rng.uniform(r_floor, r_floor + 5.0, n)))
    tag = f"[{label}]" if label else ""
    for sid, r in metrics:
        asm = assemble(mesh, r)
        rep.check_lower(sid, f"A_min{tag}", float(np.min(asm.A)), consts.a1)
        rep.check_upper(sid, f"A_max{tag}", float(np.max(asm.A)), consts.a2)
        rep.check_lower(sid, f"B_min{tag}", float(np.min(asm.B)), 0.0)
        rep.check_upper(sid, f"B_max{tag}", float(np.max(asm.B)), consts.a3)
        rep.check_upper(sid, f"ab_identity_residual{tag}",
                        asm.ab_residual, verify.AB_IDENTITY_RTOL)
    return rep


def run_prop24_loop(samples=1_000, seed=42, mesh=None):
    """Zero-weight bounds 0 < B < 1 and 0 < A_i < d_i cosh 1 on the
    built-in meshes over random metrics."""
    rep = verify.SweepReport("prop24", seed, samples)
    cosh1 = math.cosh(1.0)
    # hypothesis: zero weights
    for name, mesh in verify._targets(None if mesh is None else mesh.with_uniform_weight(0.0)):
        deg = np.asarray(mesh.degrees(), dtype=float)
        for i in range(samples):
            rng = verify.sample_rng(seed, i if name == "tetra" else 60_000 + i)
            r = verify.log_uniform(rng, 1e-3, 50.0, mesh.vertex_count)
            asm = assemble(mesh, r)
            rep.check_lower(f"{name}:{i}", "B_min", float(np.min(asm.B)), 0.0)
            if np.any(asm.B <= 0.0):
                rep.violate(f"{name}:{i}", "B_not_strictly_positive",
                            float(np.min(asm.B)), 0.0)
            rep.check_upper(f"{name}:{i}", "B_max", float(np.max(asm.B)), 1.0)
            if np.any(asm.B >= 1.0):
                rep.violate(f"{name}:{i}", "B_not_below_one", float(np.max(asm.B)), 1.0)
            ratio = asm.A / (deg * cosh1)
            rep.check_upper(f"{name}:{i}", "A_over_degree_cosh1",
                            float(np.max(ratio)), 1.0)
            if np.any(asm.A <= 0.0) or np.any(ratio >= 1.0):
                rep.violate(f"{name}:{i}", "A_bounds", float(np.max(ratio)), 1.0)
    return rep
