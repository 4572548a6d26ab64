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
from types import SimpleNamespace

import mpmath as mp
import numpy as np

from cpflow.errors import (
    CpflowError,
    DegenerateFaceError,
    MeshFormatError,
    MeshValidationError,
    NumericalConsistencyError,
    RadiusOverflowError,
    StarConditionError,
)
from cpflow import verify
from cpflow.hypgeom import A_NORM_FLOOR, RADIUS_CAP
from cpflow.laplacian import (
    AB_CONSISTENCY_RTOL, assemble, curvature, r_of_u, u_of_r, validate_radii)
from cpflow.mesh import Edge, Face, simplicial_from_faces

mp.mp.dps = 60


def corner_gammas(weights):
    """gamma per corner from the three opposite-ordered face weights, with
    math.cos: the scalar reference for `hypgeom.corner_values`."""
    g = [math.cos(w) for w in weights]
    return tuple(g[t] + g[(t + 1) % 3] * g[(t + 2) % 3] for t in range(3))


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


def symmetry_residual(rows, cols, vals, n) -> float:
    """max |L - L^T| over the n x n matrix L whose nonzero entries are the
    COO triples (rows, cols, vals), no (row, col) given twice: the generic
    reference for the residual of `spd_check`.

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


# -- seeded test inputs -----------------------------------------------------------------
#
# The generators and single-row weight draws the tests build their inputs
# with. The suites draw from verify's streams instead; these keep the test
# inputs what they were when the suites drew them too.

def sample_rng(seed, index):
    """Generator for one sample, independent of evaluation order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def sample_star_face_weights(rng):
    """Three weights uniform on [0, pi), rejected until every corner value
    gamma is nonnegative: `verify.star_weights` on one triangle."""
    return tuple(verify._star_rows(rng, verify._FACE_EDGES, 1)[0].tolist())


def sample_star_mesh_weights(mesh, rng):
    """Per-edge weights uniform on [0, pi), rejected until every face meets
    the corner condition: `verify.star_weights` on the mesh."""
    return mesh.with_weights(verify._star_rows(rng, mesh.edge_rows, 1)[0])


# -- per-sample and per-metric suites ---------------------------------------------------
#
# The loops `cpflow.verify` batched: rejection sampling one try at a time,
# each sample drawn alone from its row of the suite's stream, one assembly
# per sampled metric and one curvature call per stencil point. The batched
# samplers and suites must reproduce them bit for bit.

def row_rng(seed, tag, i, size):
    """Generator at the start of row i of the (samples, size) block of
    stream tag: numpy's PCG64 on SeedSequence(seed, spawn_key=(tag, 0)),
    advanced by the i * size doubles of the rows before it."""
    bit_generator = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(tag, 0)))
    bit_generator.advance(i * size)
    return np.random.Generator(bit_generator)


def unit_draws_loop(seed, tag, ids, size):
    """(len(ids), size) uniforms on [0, 1), row k drawn alone as row ids[k]
    of stream tag."""
    u = np.empty((len(ids), size))
    for k, i in enumerate(ids):
        row_rng(seed, tag, i, size).random(out=u[k])
    return u


class ScriptedRng:
    """Stands in for a Generator: uniform draws hand out the given rows in
    turn, the last one again once they run out; bit_generator.state is the
    index of the next row, and bit_generator.advance(n) moves it by n
    doubles, whole rows, as PCG64's does (a negative n steps back)."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)
        self.bit_generator = SimpleNamespace(state=0, advance=self._advance)

    def _advance(self, delta):
        self.bit_generator.state += delta // self.rows.shape[1]

    def uniform(self, low, high, size):
        count = size[0] if isinstance(size, tuple) else 1
        k = self.bit_generator.state
        self.bit_generator.state = k + count
        block = self.rows[np.minimum(np.arange(k, k + count), len(self.rows) - 1)]
        return block if isinstance(size, tuple) else block[0]


def log_uniform_draw(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def star_weights_loop(rng, edges, count, max_tries):
    """(rows, error) as verify.star_weights gives them, one try at a time:
    row k is the first try after row k - 1 of E weights uniform on [0, pi)
    whose scalar corner_gammas are nonnegative on every face (edges (3, F)
    holds the faces' edge ids); after max_tries failing tries in a row, the
    rows so far and the error verify's sampler gives."""
    edges = np.asarray(edges)
    rows = []
    for _ in range(count):
        for _ in range(max_tries):
            w = rng.uniform(0.0, math.pi, int(edges.max()) + 1)
            if all(min(corner_gammas(tuple(w[face]))) >= 0.0 for face in edges.T):
                rows.append(w)
                break
        else:
            return rows, CpflowError("weight rejection sampling did not terminate")
    return rows, None


def sample_star_triangles_loop(seed, suite, ids, r_lo, r_hi):
    """The star triangles of the sample ids of a triangle suite in one
    packing: triangle i draws its log-uniform radii from row i of stream
    suite alone, and its weights are the i-th passing try of stream
    suite:weights, drawn one try at a time."""
    radii, weights = np.empty((3, len(ids))), np.empty((3, len(ids)))
    rows, failed = star_weights_loop(verify._stream(seed, verify.STREAM_TAGS[f"{suite}:weights"]),
                                     [[0], [1], [2]], ids.stop, verify.MAX_WEIGHT_TRIES)
    if failed is not None:
        raise failed
    for k, i in enumerate(ids):
        radii[:, k] = log_uniform_draw(row_rng(seed, verify.STREAM_TAGS[suite], i, 3), r_lo, r_hi, 3)
        weights[:, k] = rows[i]
    return verify.TrianglePacking(radii, weights)


def fd_angle_jacobian_loop(tp, h: float = 1e-5) -> np.ndarray:
    """(3, 3, N) central differences of the corner angles with respect to
    u, one triangle and one column at a time, each stencil point a kernel
    call of its own: at step h, else at h / 10 where u + h leaves u < 0 or
    a point raises DegenerateFaceError."""
    out = np.empty((3, 3, tp.radii.shape[1]))
    for i in range(tp.radii.shape[1]):
        u0, w = u_of_r(tp.radii[:, i]), tp.weights[:, [i]]

        def angles(u):
            tri = verify.TrianglePacking(r_of_u(u)[:, None], w)
            return verify.hypgeom.triangle_geometry(tri).angles[:, 0]

        for attempt_h in (h, 0.1 * h):
            if np.any(u0 + attempt_h >= 0.0):
                continue            # perturbed u leaves the domain
            try:
                columns = [angles(u0 + d) - angles(u0 - d) for d in attempt_h * np.eye(3)]
            except DegenerateFaceError:
                continue
            out[:, :, i] = np.stack(columns, axis=1) / (2.0 * attempt_h)
            break
        else:
            raise DegenerateFaceError("finite-difference stencil leaves the admissible set")
    return out


def fd_curvature_jacobian_loop(mesh, r, h: float = 1e-5) -> np.ndarray:
    """Central differences of the curvature vector with respect to u."""
    if not (1e-7 <= h <= 1e-3):
        raise ValueError(f"step {h!r} outside [1e-7, 1e-3]")
    u0 = u_of_r(validate_radii(mesh, r))
    for attempt_h in (h, 0.1 * h):
        if np.any(u0 + attempt_h >= 0.0):
            continue            # perturbed u leaves the domain
        try:
            columns = [curvature(mesh, r_of_u(u0 + d)) - curvature(mesh, r_of_u(u0 - d))
                       for d in attempt_h * np.eye(mesh.vertex_count)]
        except DegenerateFaceError:
            continue
        return np.stack(columns, axis=1) / (2.0 * attempt_h)
    raise DegenerateFaceError("finite-difference stencil leaves the admissible set")


def sample_star_mesh_weights_loop(mesh, rng, max_tries=1_000_000):
    """Per-edge weights uniform on [0, pi), rejected until every face
    satisfies the corner condition; after max_tries failing tries, the
    error verify's sampler raises."""
    rows, failed = star_weights_loop(rng, np.array([f.edges for f in mesh.faces]).T, 1, max_tries)
    if failed is not None:
        raise failed
    return mesh.with_weights(rows[0])


def check_upper(rep, sample, quantity, value, bound):
    """Record value as a sup of quantity, and a violation unless value <= bound."""
    rep.record_sup(quantity, value)
    if not (value <= bound):
        rep.violate(sample, quantity, value, bound)


def check_lower(rep, sample, quantity, value, bound):
    """Record value as an inf of quantity, and a violation unless value >= bound."""
    rep.record_inf(quantity, value)
    if not (value >= bound):
        rep.violate(sample, quantity, value, bound)


def sweep_floor_bounds_loop(mesh, r_floor, samples, seed, label=""):
    """Certify a1 <= A_i <= a2 and 0 <= B_e <= a3 for radii in
    [r_floor, r_floor + 5], including the floor itself."""
    rep = verify.SweepReport("theorem1", seed, samples)
    consts = verify.floor_bound_constants(mesh, r_floor)
    n = mesh.vertex_count
    metrics = [("boundary", np.full(n, r_floor))]
    for i in range(samples):
        rng = row_rng(seed, verify.STREAM_TAGS["theorem1"], i, n)
        metrics.append((i, rng.uniform(r_floor, r_floor + 5.0, n)))
    tag = f"[{label}]" if label else ""
    for sid, r in metrics:
        asm = assemble(mesh, r)
        check_lower(rep, sid, f"A_min{tag}", float(np.min(asm.A)), consts.a1)
        check_upper(rep, sid, f"A_max{tag}", float(np.max(asm.A)), consts.a2)
        check_lower(rep, sid, f"B_min{tag}", float(np.min(asm.B)), 0.0)
        check_upper(rep, sid, f"B_max{tag}", float(np.max(asm.B)), consts.a3)
        check_upper(rep, sid, f"ab_identity_residual{tag}",
                    asm.ab_residual, verify.AB_IDENTITY_RTOL)
    return rep


def run_theorem1_loop(samples, seed, mesh=None):
    """theorem1 as one sweep_floor_bounds_loop per floor in verify.FLOORS and
    weighting, merged into one report."""
    base = mesh if mesh is not None else verify.builtin_mesh("tetra")
    weights = verify._stream(seed, verify.STREAM_TAGS["theorem1:weights"])
    mixed = sample_star_mesh_weights_loop(base, weights, verify.MAX_WEIGHT_TRIES)
    rep = verify.SweepReport("theorem1", seed, (samples + 1) * len(verify.FLOORS) * 2)
    for r_floor in verify.FLOORS:
        for mode, m in (("zero", base), ("mixed", mixed)):
            sub = sweep_floor_bounds_loop(m, r_floor, samples, seed, f"R={r_floor},{mode}")
            rep.sups.update(sub.sups)
            rep.infs.update(sub.infs)
            rep.violations.extend(sub.violations)
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
            rng = row_rng(seed, verify.STREAM_TAGS[f"prop24:{name}"], i, mesh.vertex_count)
            r = log_uniform_draw(rng, 1e-3, 50.0, mesh.vertex_count)
            asm = assemble(mesh, r)
            check_lower(rep, f"{name}:{i}", "B_min", float(np.min(asm.B)), 0.0)
            if np.any(asm.B <= 0.0):
                rep.violate(f"{name}:{i}", "B_not_strictly_positive",
                            float(np.min(asm.B)), 0.0)
            check_upper(rep, f"{name}:{i}", "B_max", float(np.max(asm.B)), 1.0)
            if np.any(asm.B >= 1.0):
                rep.violate(f"{name}:{i}", "B_not_below_one", float(np.max(asm.B)), 1.0)
            ratio = asm.A / (deg * cosh1)
            check_upper(rep, f"{name}:{i}", "A_over_degree_cosh1",
                        float(np.max(ratio)), 1.0)
            if np.any(asm.A <= 0.0) or np.any(ratio >= 1.0):
                rep.violate(f"{name}:{i}", "A_bounds", float(np.max(ratio)), 1.0)
    return rep


def _mesh_metrics_loop(base, seed, target, count, r_hi, keep_even=False):
    """Yield (i, mesh, radii) for the metrics of the spd and jacobians mesh
    loops: metric i draws its radii, log-uniform on [0.1, r_hi], from row i
    of stream target alone; its weights are base's own for an even i if
    keep_even, else the next passing try of stream target:weights, drawn
    one try at a time. Where that sampler gives up, its error is raised."""
    weights = verify._stream(seed, verify.STREAM_TAGS[f"{target}:weights"])
    for i in range(count):
        mesh = base if keep_even and i % 2 == 0 else \
            sample_star_mesh_weights_loop(base, weights, verify.MAX_WEIGHT_TRIES)
        rng = row_rng(seed, verify.STREAM_TAGS[target], i, base.vertex_count)
        yield i, mesh, log_uniform_draw(rng, 0.1, r_hi, base.vertex_count)


def run_jacobians_loop(samples, seed, mesh=None):
    """jacobians with one assembly and one column-loop FD Jacobian per
    mesh metric; the triangle half is the suite's own."""
    rep = verify.SweepReport("jacobians", seed, samples)
    for ids, tp in verify.sample_star_triangles(seed, "jacobians", samples, verify._BATCH // 6,
                                                0.1, 10.0):
        err = verify.matrix_rel_error(verify.fd_angle_jacobian(tp),
                                      verify.hypgeom.angle_jacobian(tp))
        rep.check_batch(ids, [("angle_fd_matrix_rel", err, verify.ANGLE_FD_RTOL, "upper")])
    for name, base in verify._targets(mesh):
        count = min(verify.MESH_METRICS, samples)
        for i, m, r in _mesh_metrics_loop(base, seed, f"jacobians:{name}", count, 5.0, True):
            asm = assemble(m, r)
            check_upper(rep, f"{name}:{i}", "ab_identity_residual",
                        asm.ab_residual, verify.AB_IDENTITY_RTOL)
            fd = fd_curvature_jacobian_loop(m, r, verify.FD_STEP)
            err = np.abs(fd - asm.L) - np.maximum(
                verify.CURVATURE_FD_RTOL * np.abs(asm.L), verify.CURVATURE_FD_ATOL)
            check_upper(rep, f"{name}:{i}", "curvature_fd_margin", float(np.max(err)), 0.0)
            check_upper(rep, f"{name}:{i}", "curvature_fd_symmetry",
                        float(np.max(np.abs(fd - fd.T))), verify.FD_SYMMETRY_ATOL)
    for i, m, r in _mesh_metrics_loop(verify._octahedron(), seed, "jacobians:octa", 20, 5.0, True):
        fd = fd_curvature_jacobian_loop(m, r, verify.FD_STEP)
        for a, b in [(0, 5), (1, 3), (2, 4)]:
            check_upper(rep, f"octa:{i}", "nonadjacent_fd_entry",
                        abs(float(fd[a, b])), verify.CURVATURE_FD_ATOL)
    return rep


def run_spd_loop(samples, seed, mesh=None):
    """spd with one assembly, one dense eigvalsh and one COO symmetry
    residual per metric."""
    rep = verify.SweepReport("spd", seed, samples)
    for name, base in verify._targets(mesh):
        for i, m, r in _mesh_metrics_loop(base, seed, f"spd:{name}", samples, 10.0):
            asm = assemble(m, r)
            min_eig = float(np.linalg.eigvalsh(asm.L)[0])
            sym = symmetry_residual(*asm.entries, m.vertex_count)
            check_lower(rep, f"{name}:{i}", "min_eigenvalue", min_eig, 0.0)
            if min_eig <= 0.0:
                rep.violate(f"{name}:{i}", "min_eigenvalue_nonpositive", min_eig, 0.0)
            check_upper(rep, f"{name}:{i}", "symmetry_residual", sym, 0.0)
            margin = np.diag(asm.L) - (np.sum(np.abs(asm.L), axis=1) - np.abs(np.diag(asm.L)))
            check_lower(rep, f"{name}:{i}", "diag_dominance_margin", float(np.min(margin)), 0.0)
            rel = np.max(np.abs(margin - asm.A) / (1.0 + np.abs(asm.A)))
            check_upper(rep, f"{name}:{i}", "dominance_margin_vs_A", float(rel), 1e-9)
    return rep


def run_theorem2_loop(samples, seed):
    """theorem2 with one kernel call per weight triple and one check_batch
    per triple and segment, each ray's stabilization checked after it."""
    NEXT, PREV = verify.NEXT, verify.PREV
    grid = verify._log_space(1e-6, 1e2, verify._GRID_PER_AXIS)
    grid_points = [(x, y, z) for x in grid for y in grid for z in grid]
    segments = [("grid", grid_points, 0)] + verify._uniform_bound_rays()
    names = [f"grid({x:.1e},{y:.1e},{z:.1e})" for x, y, z in grid_points]
    names += [f"{ray}:{i}" for ray, pts, _ in segments[1:] for i in range(len(pts))]
    radii = np.array([p for _, pts, _ in segments for p in pts]).T
    triples = verify.default_weight_triples(samples, seed)
    rep = verify.SweepReport("theorem2", seed, radii.shape[1] * len(triples))
    for w_idx, weights in enumerate(triples):
        if verify.star_violations(np.cos(np.array(weights, dtype=float))).any():
            raise ValueError(f"weight triple {w_idx} violates the corner condition")
        w = np.repeat(np.array(weights, dtype=float)[:, None], radii.shape[1], axis=1)
        t1, t2 = verify.closed_form_pair(verify.TrianglePacking(radii, w))
        finite = np.isfinite(t1) & np.isfinite(t2)
        # edge t joins corners i = t + 1 and j = t + 2
        p1, p2 = verify.poly_pair_derivative(verify.SubstitutedCoords.from_radii(
            radii.take(NEXT, axis=0), radii.take(PREV, axis=0), radii,
            w, w.take(PREV, axis=0), w.take(NEXT, axis=0)))
        crossed = finite & np.isfinite(p1) & np.isfinite(p2)
        cross = np.maximum(verify._rel_gap(p1, t1), verify._rel_gap(p2, t2))
        # per corner, the face's contribution to A: t2 of the two edges at it
        face_a = t2.take(PREV, axis=0) + t2.take(NEXT, axis=0)
        if finite.any():
            rep.record_sup("t1_sup", t1[finite].max())
            rep.record_sup("t2_sup", t2[finite].max())
        # per point, the largest finite t1 and t2 over the edges, else 0
        has = finite.any(axis=0)
        m1 = np.where(has, np.where(finite, t1, -math.inf).max(axis=0), 0.0)
        m2 = np.where(has, np.where(finite, t2, -math.inf).max(axis=0), 0.0)
        key1, key2 = f"t1_sup[w{w_idx}]", f"t2_sup[w{w_idx}]"
        labels = [f"w{w_idx}:{name}" for name in names]
        end = 0
        for ray_name, pts, n_boundary in segments:
            seg = slice(end, end + len(pts))
            end = seg.stop
            checks = []
            for t in range(3):
                ok = finite[t, seg]
                checks += [(f"finite_t1_t2[edge{t}]", t1[t, seg], math.inf, "fail", ~ok),
                           ("t1_min", t1[t, seg], 0.0, "lower", ok),
                           ("t2_min", t2[t, seg], 0.0, "lower", ok),
                           ("poly_cross_check", cross[t, seg], verify.DENOMINATOR_EQUIV_RTOL,
                            "upper", crossed[t, seg])]
            for corner in range(3):
                a = face_a[corner, seg]
                checks += [("face_A_contribution", a, 0.0, "lower"),
                           ("face_A_contribution_nonpositive", a, 0.0, "fail", a <= 0.0)]
            rep.check_batch(labels[seg], checks)
            if ray_name == "grid":
                if has[seg].any():      # the grid records edge values, not point maxima
                    rep.record_sup(key1, m1[seg][has[seg]].max())
                    rep.record_sup(key2, m2[seg][has[seg]].max())
                continue
            rep.record_sup(key1, m1[seg].max())
            rep.record_sup(key2, m2[seg].max())
            if ray_name.startswith("large_r"):
                continue    # stabilization is certified on the r -> 0 rays
            for kind, seq in (("t1", m1[seg]), ("t2", m2[seg])):
                sup_rest = float(seq[n_boundary:].max()) if len(seq) > n_boundary else 0.0
                sup_all = float(seq.max())
                if sup_all > (1.0 + verify.STABILIZATION_RTOL) * sup_rest + 1e-12:
                    rep.violate(
                        f"w{w_idx}:{ray_name}", f"{kind}_sup_stabilization",
                        sup_all, (1.0 + verify.STABILIZATION_RTOL) * sup_rest,
                    )
        rep.record_sup(f"C1_candidate[w{w_idx}]", 2.0 * verify._DEGREE * rep.sups.get(key2, 0.0))
        rep.record_sup(f"C2_candidate[w{w_idx}]", 2.0 * rep.sups.get(key1, 0.0))
        if crossed.any():
            rep.record_sup("poly_cross_check_max", cross[crossed].max())
        rep.record_sup(f"poly_cross_checked[w{w_idx}]", float(np.count_nonzero(crossed)))
    return rep
