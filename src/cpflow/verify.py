"""Oracles and certification sweeps.

Every sweep draws its randomness through a per-sample generator derived
from (seed, sample index), so reports are reproducible bit for bit and
independent of evaluation order. Suites return a SweepReport; a run with
an empty violation list is a pass.
"""

import math
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from . import hypgeom, laplacian
from .errors import CpflowError, DegenerateFaceError, MeshValidationError
from .hypgeom import NEXT, PREV, ROWS, TrianglePacking
from .mesh import WeightedTriangulation, builtin_mesh, corner_gammas, simplicial_from_faces

# -- reproducible sampling ----------------------------------------------------

def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for one sample, independent of evaluation order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def sample_star_face_weights(rng):
    """Three weights uniform on [0, pi), rejected until every corner
    value gamma is nonnegative."""
    while True:
        w = rng.uniform(0.0, math.pi, 3)
        if min(corner_gammas(tuple(w))) >= 0.0:
            return tuple(float(x) for x in w)


def sample_star_mesh_weights(mesh, rng, max_tries=1_000_000):
    """Per-edge weights uniform on [0, pi), rejected until every face meets
    the corner condition: tries are screened in numpy blocks, the scalar
    `corner_gammas` decides, and the generator ends as single tries leave it."""
    edges, ne = mesh.edge_ids, mesh.edge_count
    rows = max(1, 2**11 // ne)      # tries per block: 2**11 weights
    for lo in range(0, max_tries, rows):
        state = rng.bit_generator.state
        block = rng.uniform(0.0, math.pi, (min(rows, max_tries - lo), ne))
        g = np.cos(block)[:, edges]             # (tries, F, 3)
        maybe = (g + g[..., NEXT] * g[..., PREV]).min(axis=(1, 2)) >= -1e-12
        for k in np.flatnonzero(maybe):
            if all(min(corner_gammas(w)) >= 0.0 for w in block[k, edges].tolist()):
                rng.bit_generator.state = state
                return mesh.with_weights(rng.uniform(0.0, math.pi, (k + 1, ne))[k])
    raise CpflowError("weight rejection sampling did not terminate")


def sample_star_triangles(seed, ids, r_lo, r_hi):
    """The star triangles of the sample ids in one packing; triangle i
    draws its log-uniform radii, then its weights, from sample_rng(seed, i)."""
    radii, weights = np.empty((3, len(ids))), np.empty((3, len(ids)))
    for k, i in enumerate(ids):
        rng = sample_rng(seed, i)
        radii[:, k] = log_uniform(rng, r_lo, r_hi, 3)
        weights[:, k] = sample_star_face_weights(rng)
    return TrianglePacking(radii, weights)


# samples per kernel call of a triangle suite: a batch holds ~800 bytes
# per sample at its peak, so this keeps a suite within ~2 MB of memory
_BATCH = 2_000


# -- finite-difference oracles -------------------------------------------------

def fd_angle_jacobian(tp: TrianglePacking, h: float = 1e-5) -> np.ndarray:
    """(3, 3, N) central differences of the corner angles with respect to
    u in one kernel call; if a stencil leaves the admissible set, each
    triangle is differenced alone and, if it still leaves, at h / 10."""
    if not (1e-7 <= h <= 1e-3):
        raise ValueError(f"step {h!r} outside [1e-7, 1e-3]")
    u0, w = laplacian.u_of_r(tp.radii), tp.weights
    try:
        return _fd_stencils(u0, w, h)
    except DegenerateFaceError:
        if u0.shape[1] == 1:
            return _fd_stencils(u0, w, 0.1 * h)
    return np.concatenate([fd_angle_jacobian(TrianglePacking(tp.radii[:, [i]], w[:, [i]]), h)
                           for i in range(u0.shape[1])], axis=2)


def _fd_stencils(u0, weights, h):
    """(3, 3, N) central differences at step h of the (3, N) triangles."""
    if np.any(u0 + h >= 0.0):
        raise DegenerateFaceError("finite-difference stencil leaves the admissible set")
    # per triangle, columns u0 + h e_b, then u0 - h e_b, for b = 0, 1, 2
    u = (u0[:, :, None] + h * np.kron(np.eye(3), [1.0, -1.0])[:, None, :]).reshape(3, -1)
    tp = TrianglePacking(laplacian.r_of_u(u), np.repeat(weights, 6, axis=1))
    angles = hypgeom.triangle_geometry(tp).angles.reshape(3, -1, 6)
    return ((angles[..., 0::2] - angles[..., 1::2]) / (2.0 * h)).transpose(0, 2, 1)


def fd_curvature_jacobian(mesh, r, h: float = 1e-5) -> np.ndarray:
    """Central differences of the curvature vector with respect to u."""
    if not (1e-7 <= h <= 1e-3):
        raise ValueError(f"step {h!r} outside [1e-7, 1e-3]")
    u0 = laplacian.u_of_r(laplacian.validate_radii(mesh, r))
    for attempt_h in (h, 0.1 * h):
        if np.any(u0 + attempt_h >= 0.0):
            continue            # perturbed u leaves the domain
        try:
            columns = [laplacian.curvature(mesh, laplacian.r_of_u(u0 + d))
                       - laplacian.curvature(mesh, laplacian.r_of_u(u0 - d))
                       for d in attempt_h * np.eye(mesh.vertex_count)]
        except DegenerateFaceError:
            continue
        return np.stack(columns, axis=1) / (2.0 * attempt_h)
    raise DegenerateFaceError("finite-difference stencil leaves the admissible set")


def matrix_rel_error(candidate, reference):
    """Max entry deviation normalized by the largest reference entry, per
    matrix: the first two axes span a matrix, any further axis a batch."""
    scale = np.maximum(np.max(np.abs(reference), axis=(0, 1)), 1e-300)
    return np.max(np.abs(candidate - reference), axis=(0, 1)) / scale


# -- explicit bound constants under a radius floor -----------------------------

@dataclass(frozen=True)
class BoundConstants:
    R: float
    a: float
    phi_bar: float
    m1: float
    m2: float
    m3: float
    m4_per_face: tuple   # per face: one value per edge position
    m5: float
    m6: float
    m7: float
    m8: float
    a1: float
    a2: float
    a3: float
    n_vertices: int

    def to_dict(self):
        return asdict(self)


def floor_bound_constants(mesh: WeightedTriangulation, r_floor: float) -> BoundConstants:
    """Explicit constants bounding A and B once every radius exceeds r_floor."""
    if not (r_floor > 0.0):
        raise ValueError(f"radius floor must be positive, got {r_floor!r}")
    a = 0.5 * (-math.expm1(-r_floor))        # (1 - e^-R)/2
    cosines = [math.cos(p) for p in mesh.phi.tolist()]
    phi_bar = min(0.0, min(cosines))
    one_pb = 1.0 + phi_bar
    if one_pb == 0.0:       # a weight within ~1e-8 of pi has cosine -1 in doubles
        raise MeshValidationError("1 + phi_bar is 0, so the bound constants are infinite")
    m1 = 4.0 * a**4 * one_pb
    m6 = 16.0 * a**8 * one_pb**2
    m8 = 128.0 * one_pb * a**12
    d14 = 64.0 * a**14 * one_pb**2
    a1 = d14 / 15.0
    a3 = 5.0 / (d14 * math.sqrt(one_pb)) if d14 > 0.0 else math.inf
    a2 = mesh.vertex_count * a3
    if not math.isfinite(a2):
        raise ValueError(
            f"radius floor {r_floor!r} is too small: a**14 underflows, so the "
            "bound constants leave double range")
    m4 = []
    for weights in mesh.phi[mesh.edge_ids].tolist():
        g = [math.cos(w) for w in weights]
        row = []
        for t in range(3):
            gt, gu, gv = g[t], g[(t + 1) % 3], g[(t + 2) % 3]
            bracket = (1.0 - gt * gt) + (gu + gt * gv) + (gv + gt * gu)
            row.append(32.0 * a**10 * bracket)
        m4.append(tuple(row))
    return BoundConstants(
        R=r_floor, a=a, phi_bar=phi_bar,
        m1=m1, m2=2.0, m3=5.0, m5=6.0, m6=m6, m7=19.0, m8=m8,
        a1=a1, a2=a2, a3=a3,
        n_vertices=mesh.vertex_count, m4_per_face=tuple(m4),
    )


# -- substituted coordinates and the polynomial derivative forms ---------------

@dataclass(frozen=True)
class SubstitutedCoords:
    """x = (e^(2 r_i) - 1)/2 and friends, plus the face weight polynomials;
    scalars, or arrays of points."""

    x: float
    y: float
    z: float
    a1: float
    a2: float
    a3: float
    b1: float
    b2: float
    b3: float
    c: float
    phi_ij: float       # cosine of the weight on the xy edge

    @classmethod
    def from_radii(cls, r_i, r_j, r_k, w_ij, w_ik, w_jk):
        x = 0.5 * np.expm1(2.0 * r_i)
        y = 0.5 * np.expm1(2.0 * r_j)
        z = 0.5 * np.expm1(2.0 * r_k)
        pij, pik, pjk = np.cos(w_ij), np.cos(w_ik), np.cos(w_jk)
        return cls(
            x=x, y=y, z=z,
            a1=1.0 - pij * pij, a2=1.0 - pik * pik, a3=1.0 - pjk * pjk,
            b1=pij + pik * pjk, b2=pik + pij * pjk, b3=pjk + pij * pik,
            c=1.0 + pij * pik * pjk, phi_ij=pij,
        )


@np.errstate(over="ignore", invalid="ignore")
def poly_forms(co: SubstitutedCoords):
    """The four substituted polynomial forms (f, g1, g2, q); overflow gives
    inf or nan."""
    x, y, z, p = co.x, co.y, co.z, co.phi_ij
    a1, a2, a3 = co.a1, co.a2, co.a3
    b1, b2, b3 = co.b1, co.b2, co.b3
    f = (a1 + b2 + b3) * x * x * y * y * z + b2 * x * y * y * z \
        + b3 * x * x * y * z + a1 * x * x * y * y
    # leading coefficient is (1+p)^2: expand
    # ((x+1)(y+1) + p x y)^2 - (2x+1)(2y+1) and collect x^2 y^2
    g1 = (1.0 + p) * (1.0 + p) * x * x * y * y \
        + 2.0 * (1.0 + p) * (x * x * y + x * y * y) \
        + x * x + y * y + 2.0 * p * x * y
    g2 = (
        2.0 * (co.c + b1 + b2 + b3) * x * x * y * y * z * z
        + 2.0 * (a1 + b2 + b3) * x * x * y * y * z
        + 2.0 * (a3 + b1 + b2) * x * y * y * z * z
        + 2.0 * (a2 + b1 + b3) * x * x * y * z * z
        + a1 * x * x * y * y + a3 * y * y * z * z + a2 * x * x * z * z
        + 2.0 * b2 * x * y * y * z + 2.0 * b3 * x * x * y * z
        + 2.0 * b1 * x * y * z * z
    )
    root = np.sqrt(4.0 * x * y + 2.0 * x + 2.0 * y + 1.0)
    # q = (1+p) x y + x + y + 1 - root, rewritten so it never cancels
    q = (1.0 + p) * x * y + (x - y) * (x - y) / (x + y + 1.0 + root)
    return f, g1, g2, q


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def poly_pair_derivative(co: SubstitutedCoords):
    """(t1, t2) where t1 = d theta_j / d u_i and t2 = t1 (cosh l_ij - 1),
    evaluated purely from the substituted polynomial forms.

    nan marks a point the polynomial route cannot represent: g1 or g2 not
    positive (an inadmissible point), or the forms, the denominator or the
    results outside double range.
    """
    f, g1, g2, q = poly_forms(co)
    den = g1 * np.sqrt(g2)
    t1 = f * np.sqrt((2.0 * co.x + 1.0) * (2.0 * co.y + 1.0)) / den
    t2 = f * q / den
    ok = ((g1 > 0.0) & (g2 > 0.0) & np.isfinite(f) & np.isfinite(g1) & np.isfinite(g2)
          & np.isfinite(den) & (den != 0.0) & np.isfinite(t1) & np.isfinite(t2))
    return np.where(ok, t1, np.nan), np.where(ok, t2, np.nan)


def closed_form_pair(tp: TrianglePacking, geom=None):
    """(t1, t2) for each edge role straight from the triangle kernel.

    Both are (3, N): row t is the edge joining corners t+1 and t+2, with
    t1 = d theta_{t+2} / d u_{t+1} and t2 = t1 (cosh l_t - 1). The
    discriminant denominator is used because it is built from radii
    products alone and keeps full precision at the mixed-extreme radii the
    boundary rays visit; its agreement with the production denominator is
    certified separately.
    """
    if geom is None:
        geom = hypgeom.triangle_geometry(tp)
    t1 = hypgeom.pair_derivative(tp, PREV, NEXT, geom, use_delta=True)
    return t1, t1 * geom.cosh_l_minus_1


# -- brute-force inequality on cosine triples -----------------------------------

def cosine_inequality_bruteforce(c: float, grid_n: int):
    """Exhaustive minimum of 2 - x^2 - y^2 + (x+yz) + (y+xz) + (z+xy) over
    the inclusive grid {c + k (1-c)/grid_n}^3 restricted to points with
    x+yz, y+xz, z+xy all nonnegative. Returns (min value, argmin); the
    argmin is the first minimum in x, then y, then z order."""
    if not (-1.0 < c <= 0.0):
        raise ValueError(f"c must lie in (-1, 0], got {c!r}")
    if grid_n < 10:
        raise ValueError(f"grid_n must be at least 10, got {grid_n}")
    ticks = np.array([c + k * (1.0 - c) / grid_n for k in range(grid_n + 1)])
    y, z = ticks[None, :, None], ticks[None, None, :]
    best, argmin = math.inf, None
    # x values per pass, so that a pass holds ~2**15 points and ~2 MB
    slab = max(1, 2**15 // (grid_n + 1) ** 2)
    for lo in range(0, grid_n + 1, slab):
        x = ticks[lo:lo + slab, None, None]
        cxy, cyx, czx = x + y * z, y + x * z, z + x * y
        val = np.where((cxy >= 0.0) & (cyx >= 0.0) & (czx >= 0.0),
                       2.0 - x * x - y * y + cxy + cyx + czx, math.inf)
        i, j, k = np.unravel_index(np.argmin(val), val.shape)
        if val[i, j, k] < best:
            best = float(val[i, j, k])
            argmin = (float(x[i, 0, 0]), float(ticks[j]), float(ticks[k]))
    return best, argmin


# -- angle decay scan ------------------------------------------------------------

def angle_decay_threshold(weights, epsilon, r_other_range, samples=24, seed=0):
    """Smallest tested radius l such that the corner angle stays below
    epsilon for r_i in {l, 2l, 4l} against sampled opposite radii.

    Returns (threshold, found). found is False when even the radius cap
    fails, which would falsify the decay claim numerically.
    """
    if not (epsilon > 0.0):
        raise ValueError("epsilon must be positive")
    lo_r, hi_r = r_other_range
    rng = sample_rng(seed, 0)
    pairs = [(lo_r, lo_r), (lo_r, hi_r), (hi_r, hi_r)]
    pairs += [tuple(log_uniform(rng, lo_r, hi_r, 2)) for _ in range(samples)]
    cap = min(hypgeom.RADIUS_CAP, 708.0 - hi_r)

    # one triangle per pair (r_j, r_k) and multiple of l for r_i
    others = np.repeat(np.array(pairs).T, 3, axis=1)
    mults = np.tile([1.0, 2.0, 4.0], len(pairs))
    w = np.repeat(np.array(weights, dtype=float)[:, None], others.shape[1], axis=1)

    def angle_small(l):
        radii = np.vstack((np.minimum(mults * l, cap), others))
        geom = hypgeom.triangle_geometry(TrianglePacking(radii, w))
        return bool(np.all(geom.angles[0] < epsilon))

    l_min = 1e-6
    hi = 1.0
    while not angle_small(hi):
        hi *= 2.0
        if hi > cap:
            return cap, False
    lo = l_min
    if angle_small(lo):
        return lo, True
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if angle_small(mid):
            hi = mid
        else:
            lo = mid
        if hi / lo < 1.0 + 1e-3:
            break
    return hi, True


# -- sweep report -----------------------------------------------------------------

@dataclass
class SweepReport:
    suite: str
    seed: int
    samples: int
    sups: dict = field(default_factory=dict)
    infs: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    wall_time: float = 0.0

    def record_sup(self, key, value):
        if key not in self.sups or value > self.sups[key]:
            self.sups[key] = float(value)

    def record_inf(self, key, value):
        if key not in self.infs or value < self.infs[key]:
            self.infs[key] = float(value)

    def violate(self, sample, quantity, value, bound):
        self.violations.append({
            "sample": sample, "quantity": quantity,
            "value": float(value), "bound": float(bound),
        })

    def check_upper(self, sample, quantity, value, bound):
        self.record_sup(quantity, value)
        if not (value <= bound):
            self.violate(sample, quantity, value, bound)

    def check_lower(self, sample, quantity, value, bound):
        self.record_inf(quantity, value)
        if not (value >= bound):
            self.violate(sample, quantity, value, bound)

    def check_batch(self, samples, checks):
        """check_upper and check_lower over a batch of samples.

        checks lists (quantity, values, bound, kind[, mask]) in the order
        they apply to one sample, values and mask one entry per sample.
        "upper" and "lower" record the sup or inf where mask holds and fail
        where the bound does not; "fail" fails where mask holds. Violations
        are listed sample by sample, as a loop over the samples lists them.
        """
        failed = []
        for quantity, values, bound, kind, *mask in checks:
            applies = mask[0] if mask else np.ones(np.shape(values), dtype=bool)
            if kind == "fail":
                failed.append(applies)
                continue
            if applies.any():
                chosen = values[applies]
                if kind == "upper":
                    self.record_sup(quantity, chosen.max())
                else:
                    self.record_inf(quantity, chosen.min())
            ok = values <= bound if kind == "upper" else values >= bound
            failed.append(applies & ~ok)
        for i in np.flatnonzero(np.any(failed, axis=0)):
            for (quantity, values, bound, *_), bad in zip(checks, failed):
                if bad[i]:
                    self.violate(samples[i], quantity, values[i], bound)

    @property
    def passed(self):
        return not self.violations

    def to_dict(self):
        return {**asdict(self), "sups": dict(sorted(self.sups.items())),
                "infs": dict(sorted(self.infs.items()))}


# -- individual sweeps -------------------------------------------------------------

IDENTITY_RESIDUAL_RTOL = 1e-9
SYMMETRY_RTOL = 1e-12
DENOMINATOR_EQUIV_RTOL = 1e-9
ANGLE_FD_RTOL = 1e-6
CURVATURE_FD_RTOL = 1e-6
CURVATURE_FD_ATOL = 1e-8
FD_SYMMETRY_ATOL = 1e-6
AB_IDENTITY_RTOL = 1e-9


# the corner pairs (a, b), a < b
_LO = np.array([0, 0, 1])
_HI = np.array([1, 2, 2])


def run_identities(samples=10_000, seed=42, r_lo=1e-3, r_hi=1e2):
    """Row identity with chain-rule diagonals, pairwise symmetry, sign of
    the off-diagonal derivatives, and equality of the two denominator
    representations, on random admissible triangles."""
    rep = SweepReport("identities", seed, samples)
    for lo in range(0, samples, _BATCH):
        ids = range(lo, min(lo + _BATCH, samples))
        rep.check_batch(ids, _identity_checks(sample_star_triangles(seed, ids, r_lo, r_hi)))
    return rep


def _identity_checks(tp):
    geom = hypgeom.triangle_geometry(tp)
    row = hypgeom.glickenstein_residual(tp, geom, relative=True)
    offdiag = np.minimum(hypgeom.pair_derivative(tp, ROWS, NEXT, geom),
                         hypgeom.pair_derivative(tp, ROWS, PREV, geom))
    s1 = hypgeom.pair_derivative(tp, _LO, _HI, geom)
    s2 = hypgeom.pair_derivative(tp, _HI, _LO, geom)
    d1 = hypgeom.pair_derivative(tp, _LO, _HI, geom, use_delta=True)
    symmetry = np.abs(s1 - s2) / np.maximum(np.maximum(np.abs(s1), np.abs(s2)), 1e-300)
    denominators = np.abs(d1 - s1) / np.maximum(np.maximum(np.abs(s1), np.abs(d1)), 1e-300)
    # corner independence of the normalization (law of sines)
    per_corner = geom.sinh_l.take(NEXT, axis=0) * geom.sinh_l.take(PREV, axis=0) * geom.sin_angles
    sines = np.abs(per_corner - geom.a_norm) / geom.a_norm
    checks = []
    for a in range(3):
        checks += [("row_identity_residual", row[a], IDENTITY_RESIDUAL_RTOL, "upper"),
                   ("offdiag_min", offdiag[a], 0.0, "lower")]
    for k in range(3):
        checks += [("pair_symmetry", symmetry[k], SYMMETRY_RTOL, "upper"),
                   ("denominator_equivalence", denominators[k], DENOMINATOR_EQUIV_RTOL, "upper")]
    checks += [("law_of_sines", sines[a], DENOMINATOR_EQUIV_RTOL, "upper") for a in range(3)]
    checks.append(("area_min", geom.area, 0.0, "lower"))
    return checks


def _targets(mesh):
    """(name, mesh) pairs of a mesh suite: the given mesh, else the built-in ones."""
    if mesh is not None:
        return [("mesh", mesh)]
    return [(name, builtin_mesh(name)) for name in ("tetra", "genus2_min")]


def _octahedron():
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
             (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4)]
    return simplicial_from_faces(6, faces)


# metrics per assembly in theorem1 and prop24; a whole suite at once costs ~20 MB
_CHUNK = 100


@lru_cache(maxsize=4)       # a suite's two meshes, each in full and last chunks
def _copies(mesh, m):
    """Disjoint union of m copies of the mesh; copy c holds vertex v as
    c n + v, and edges and faces likewise."""
    n, ne = mesh.vertex_count, mesh.edge_count
    c = np.arange(m)[:, None, None]
    return WeightedTriangulation.from_arrays(
        n * m, (mesh.ends + c * n).reshape(-1, 2), np.tile(mesh.phi, m),
        (mesh.corners + c * n).reshape(-1, 3), (mesh.edge_ids + c * ne).reshape(-1, 3))


def _chunk_assemblies(mesh, radii):
    """(first row, A, B, ab_residual) per chunk of the (metrics, n) radii,
    from one assembly of copies; A and B get one row per metric."""
    for i in range(0, len(radii), _CHUNK):
        r = radii[i:i + _CHUNK]
        try:
            asm = laplacian.assemble(_copies(mesh, len(r)), r.ravel())
        except CpflowError:
            for metric in r:        # raise what assembling metric by metric raises
                laplacian.assemble(mesh, metric)
            raise
        yield i, asm.A.reshape(r.shape), asm.B.reshape(len(r), -1), asm.ab_residual


def run_jacobians(samples=1_000, seed=42, mesh_metrics=None, mesh=None):
    """Analytic derivatives against central finite differences: per-triangle
    angle Jacobians, then mesh-level curvature Jacobians on mesh_metrics
    metrics per mesh (by default min(100, samples)), their symmetry, and
    the zero pattern across non-adjacent vertex pairs."""
    if mesh_metrics is None:
        mesh_metrics = min(100, samples)
    rep = SweepReport("jacobians", seed, samples)
    for lo in range(0, samples, _BATCH // 6):      # a triangle's stencil has 6 points
        ids = range(lo, min(lo + _BATCH // 6, samples))
        tp = sample_star_triangles(seed, ids, 0.1, 10.0)
        err = matrix_rel_error(fd_angle_jacobian(tp, 1e-5), hypgeom.angle_jacobian(tp))
        rep.check_batch(ids, [("angle_fd_matrix_rel", err, ANGLE_FD_RTOL, "upper")])
    for name, base in _targets(mesh):
        for i in range(mesh_metrics):
            rng = sample_rng(seed, 10_000 + i)
            mesh = base if i % 2 == 0 else sample_star_mesh_weights(base, rng)
            r = log_uniform(rng, 0.1, 5.0, mesh.vertex_count)
            asm = laplacian.assemble(mesh, r)
            rep.check_upper(f"{name}:{i}", "ab_identity_residual",
                            asm.ab_residual, AB_IDENTITY_RTOL)
            fd = fd_curvature_jacobian(mesh, r, 1e-5)
            err = np.abs(fd - asm.L) - np.maximum(
                CURVATURE_FD_RTOL * np.abs(asm.L), CURVATURE_FD_ATOL)
            rep.check_upper(f"{name}:{i}", "curvature_fd_margin", float(np.max(err)), 0.0)
            rep.check_upper(f"{name}:{i}", "curvature_fd_symmetry",
                            float(np.max(np.abs(fd - fd.T))), FD_SYMMETRY_ATOL)
    octa = _octahedron()
    nonadjacent = [(0, 5), (1, 3), (2, 4)]
    for i in range(20):
        rng = sample_rng(seed, 20_000 + i)
        mesh = octa if i % 2 == 0 else sample_star_mesh_weights(octa, rng)
        r = log_uniform(rng, 0.1, 5.0, mesh.vertex_count)
        fd = fd_curvature_jacobian(mesh, r, 1e-5)
        for a, b in nonadjacent:
            rep.check_upper(f"octa:{i}", "nonadjacent_fd_entry",
                            abs(float(fd[a, b])), CURVATURE_FD_ATOL)
    return rep


def run_spd(samples=100, seed=42, mesh=None):
    """Positive definiteness and exact symmetry of L on random admissible
    metrics over the built-in meshes."""
    rep = SweepReport("spd", seed, samples)
    for name, base in _targets(mesh):
        for i in range(samples):
            rng = sample_rng(seed, i if name == "tetra" else 50_000 + i)
            mesh = sample_star_mesh_weights(base, rng)
            r = log_uniform(rng, 0.1, 10.0, mesh.vertex_count)
            asm = laplacian.assemble(mesh, r)
            min_eig, sym = laplacian.spd_check(asm)
            rep.check_lower(f"{name}:{i}", "min_eigenvalue", min_eig, 0.0)
            if min_eig <= 0.0:
                rep.violate(f"{name}:{i}", "min_eigenvalue_nonpositive", min_eig, 0.0)
            rep.check_upper(f"{name}:{i}", "symmetry_residual", sym, 0.0)
            margin = np.diag(asm.L) - (np.sum(np.abs(asm.L), axis=1) - np.abs(np.diag(asm.L)))
            rep.check_lower(f"{name}:{i}", "diag_dominance_margin", float(np.min(margin)), 0.0)
            rel = np.max(np.abs(margin - asm.A) / (1.0 + np.abs(asm.A)))
            rep.check_upper(f"{name}:{i}", "dominance_margin_vs_A", float(rel), 1e-9)
    return rep


def sweep_floor_bounds(mesh, r_floor, samples, seed, label=""):
    """Certify a1 <= A_i <= a2 and 0 <= B_e <= a3 for radii in
    [r_floor, r_floor + 5], including the floor itself."""
    rep = SweepReport("theorem1", seed, samples)
    consts = floor_bound_constants(mesh, r_floor)
    n = mesh.vertex_count
    ids = ["boundary", *range(samples)]
    radii = np.array([np.full(n, r_floor)] + [
        sample_rng(seed, i).uniform(r_floor, r_floor + 5.0, n) for i in range(samples)])
    tag = f"[{label}]" if label else ""
    for i, A, B, residual in _chunk_assemblies(mesh, radii):
        rep.check_batch(ids[i:i + len(A)], [
            (f"A_min{tag}", A.min(axis=1), consts.a1, "lower"),
            (f"A_max{tag}", A.max(axis=1), consts.a2, "upper"),
            (f"B_min{tag}", B.min(axis=1), 0.0, "lower"),
            (f"B_max{tag}", B.max(axis=1), consts.a3, "upper"),
            (f"ab_identity_residual{tag}", np.full(len(A), residual), AB_IDENTITY_RTOL, "upper"),
        ])
    return rep


def run_theorem1(samples=1_000, seed=42, floors=(0.25, 0.5, 1.0), mesh=None):
    """Floor-bound certification on the tetrahedron with zero and with
    mixed admissible weights."""
    rep = SweepReport("theorem1", seed, samples)
    base = mesh if mesh is not None else builtin_mesh("tetra")
    mixed = sample_star_mesh_weights(base, sample_rng(seed, 90_000))
    for r_floor in floors:
        for mode, mesh in (("zero", base), ("mixed", mixed)):
            label = f"R={r_floor},{mode}"
            sub = sweep_floor_bounds(mesh, r_floor, samples, seed, label)
            rep.sups.update(sub.sups)
            rep.infs.update(sub.infs)
            rep.violations.extend(sub.violations)
    rep.samples = samples * len(floors) * 2
    return rep


# -- uniform bound sweep (single triangle, all radii) ---------------------------

STABILIZATION_RTOL = 0.05
_RAY_POINTS = 36


def _log_space(lo, hi, n):
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


def _boundary_decade_count(ts):
    """Number of leading points within one decade of the boundary end."""
    return int(np.sum(np.asarray(ts) <= 10.0 * ts[0])) if ts[0] < ts[-1] else \
        int(np.sum(np.asarray(ts) >= 0.1 * ts[0]))


def _uniform_bound_rays():
    """(name, points, boundary decade size); point 0 is the boundary end.

    Directions are never clamped: clamping would bend a ray near its
    boundary and change the limit the stabilization check certifies.
    """
    rays = []
    for d in ((1.0, 1.0, 1.0), (1.0, 3.0, 0.4), (5.0, 1.0, 1.0)):
        ts = _log_space(1e-6 / min(d), 1.0, _RAY_POINTS)
        pts = [tuple(t * x for x in d) for t in ts]
        rays.append((f"all_to_zero{d}", pts, _boundary_decade_count(ts)))
    ts = _log_space(1e-6, 1.0, _RAY_POINTS)
    for name, axes in ([(f"two_to_zero{p}", p) for p in ((0, 1), (0, 2), (1, 2))]
                       + [(f"one_to_zero{k}", (k,)) for k in range(3)]):
        for fixed in (0.5, 20.0):
            pts = [tuple(t if k in axes else fixed for k in range(3)) for t in ts]
            rays.append((f"{name}@{fixed}", pts, _boundary_decade_count(ts)))
    for idx, d in enumerate(((1.0, 1.0, 1.0), (1.0, 1.0, 0.01))):
        ss = _log_space(1e2 / max(d), 1.0, _RAY_POINTS)   # descending scale
        pts = [tuple(s * x for x in d) for s in ss]
        rays.append((f"large_r{idx}", pts, _boundary_decade_count(ss)))
    return rays


@np.errstate(invalid="ignore", divide="ignore")
def _rel_gap(p, t):
    """|p - t| relative to the larger magnitude; 0 below 1e-250, where both
    routes are deep in underflow scale and a relative comparison is
    meaningless."""
    big = np.maximum(np.abs(t), np.abs(p))
    return np.where(big < 1e-250, 0.0, np.abs(p - t) / big)


def sweep_uniform_bounds(weight_triples, seed=42, grid_per_axis=6, degree=3):
    """For each admissible weight triple: sweep a radii log grid plus the
    boundary rays, asserting finiteness and nonnegativity of the edge
    derivative forms, cross-checking the polynomial representation, and
    requiring the running sup to stabilize on the boundary decade of
    every ray. Each triple is one kernel call over all its points."""
    rep = SweepReport("theorem2", seed, 0)
    grid = np.exp(np.linspace(math.log(1e-6), math.log(1e2), grid_per_axis))
    grid_points = [(x, y, z) for x in grid for y in grid for z in grid]
    segments = [("grid", grid_points, 0)] + _uniform_bound_rays()
    names = [f"grid({x:.1e},{y:.1e},{z:.1e})" for x, y, z in grid_points]
    names += [f"{ray}:{i}" for ray, pts, _ in segments[1:] for i in range(len(pts))]
    radii = np.array([p for _, pts, _ in segments for p in pts]).T
    for w_idx, weights in enumerate(weight_triples):
        if min(corner_gammas(tuple(weights))) < 0.0:
            raise ValueError(f"weight triple {w_idx} violates the corner condition")
        w = np.repeat(np.array(weights, dtype=float)[:, None], radii.shape[1], axis=1)
        t1, t2 = closed_form_pair(TrianglePacking(radii, w))
        finite = np.isfinite(t1) & np.isfinite(t2)
        # edge t joins corners i = t + 1 and j = t + 2
        p1, p2 = poly_pair_derivative(SubstitutedCoords.from_radii(
            radii.take(NEXT, axis=0), radii.take(PREV, axis=0), radii,
            w, w.take(PREV, axis=0), w.take(NEXT, axis=0)))
        crossed = finite & np.isfinite(p1) & np.isfinite(p2)
        cross = np.maximum(_rel_gap(p1, t1), _rel_gap(p2, t2))
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
                           ("poly_cross_check", cross[t, seg], DENOMINATOR_EQUIV_RTOL, "upper",
                            crossed[t, seg])]
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
                # the boundary decade (indices < n_boundary) must not lift
                # the running sup by more than 5%: that is the numerical
                # content of "the sup stabilizes along the ray"
                sup_rest = float(seq[n_boundary:].max()) if len(seq) > n_boundary else 0.0
                sup_all = float(seq.max())
                if sup_all > (1.0 + STABILIZATION_RTOL) * sup_rest + 1e-12:
                    rep.violate(
                        f"w{w_idx}:{ray_name}", f"{kind}_sup_stabilization",
                        sup_all, (1.0 + STABILIZATION_RTOL) * sup_rest,
                    )
        rep.record_sup(f"C1_candidate[w{w_idx}]", 2.0 * degree * rep.sups.get(key2, 0.0))
        rep.record_sup(f"C2_candidate[w{w_idx}]", 2.0 * rep.sups.get(key1, 0.0))
        if crossed.any():
            rep.record_sup("poly_cross_check_max", cross[crossed].max())
        rep.record_sup(f"poly_cross_checked[w{w_idx}]", float(np.count_nonzero(crossed)))
    rep.samples = radii.shape[1] * len(weight_triples)
    return rep


def default_weight_triples(count=20, seed=42):
    """Named corner cases plus seeded random admissible triples."""
    triples = [
        (0.0, 0.0, 0.0),
        (0.0, math.pi / 2, math.pi / 2),       # derivative vanishes on one edge
        # near the boundary pair-sum pi, nudged inside so cos rounding
        # cannot flip a corner sign on another libm
        (0.0, 2.0, math.pi - 2.0 - 1e-9),
        (0.5, 0.5, 0.5),
        (math.pi / 2, math.pi / 2, math.pi / 2),
    ]
    triples += [sample_star_face_weights(sample_rng(seed, 70_000 + i))
                for i in range(count - len(triples))]
    return triples


def run_theorem2(samples=20, seed=42):
    return sweep_uniform_bounds(default_weight_triples(samples, seed), seed=seed)


def run_prop24(samples=1_000, seed=42, mesh=None):
    """Zero-weight bounds 0 < B < 1 and 0 < A_i < d_i cosh 1 on the
    built-in meshes over random metrics."""
    rep = SweepReport("prop24", seed, samples)
    cosh1 = math.cosh(1.0)
    # hypothesis: zero weights
    for name, mesh in _targets(None if mesh is None else mesh.with_uniform_weight(0.0)):
        deg = np.asarray(mesh.degrees(), dtype=float)
        ids = [f"{name}:{i}" for i in range(samples)]
        radii = np.array([
            log_uniform(sample_rng(seed, i if name == "tetra" else 60_000 + i),
                        1e-3, 50.0, mesh.vertex_count) for i in range(samples)])
        for i, A, B, _ in _chunk_assemblies(mesh, radii):
            b_min, b_max = B.min(axis=1), B.max(axis=1)
            ratio = (A / (deg * cosh1)).max(axis=1)
            rep.check_batch(ids[i:i + len(A)], [
                ("B_min", b_min, 0.0, "lower"),
                ("B_not_strictly_positive", b_min, 0.0, "fail", b_min <= 0.0),
                ("B_max", b_max, 1.0, "upper"),
                ("B_not_below_one", b_max, 1.0, "fail", b_max >= 1.0),
                ("A_over_degree_cosh1", ratio, 1.0, "upper"),
                ("A_bounds", ratio, 1.0, "fail", (A.min(axis=1) <= 0.0) | (ratio >= 1.0)),
            ])
    return rep


def run_prop31(grid_n=50, seed=42, c_values=(0.0, -0.3, -0.7, -0.99)):
    """Constrained grid minima of the cosine-triple expression; the bound
    1 + c is exact, no tolerance."""
    rep = SweepReport("prop31", seed, len(c_values))
    for c in c_values:
        val, arg = cosine_inequality_bruteforce(c, grid_n)
        rep.record_inf(f"min[c={c:g}]", val)
        if not (val >= 1.0 + c):
            rep.violate(f"c={c:g}", "grid_minimum", val, 1.0 + c)
    return rep


def run_lemma52(seed=42):
    """Angle decay thresholds: finite for every epsilon, monotone as
    epsilon shrinks."""
    rep = SweepReport("lemma52", seed, 0)
    panels = [("zero", (0.0, 0.0, 0.0))] + [
        (f"mixed{i}", sample_star_face_weights(sample_rng(seed, 80_000 + i))) for i in range(2)]
    for name, weights in panels:
        last = None
        for eps in (1e-3, 1e-6):
            thr, found = angle_decay_threshold(weights, eps, (0.1, 10.0), seed=seed)
            rep.record_sup(f"threshold[{name},eps={eps:g}]", thr)
            if not found:
                rep.violate(f"{name}:eps={eps:g}", "threshold_not_found", thr,
                            hypgeom.RADIUS_CAP)
            if last is not None and thr < last * (1.0 - 1e-9):
                rep.violate(f"{name}:eps={eps:g}", "threshold_monotonicity", thr, last)
            last = thr
        thr_pi, _ = angle_decay_threshold(weights, math.pi, (0.1, 10.0), seed=seed)
        rep.record_inf(f"threshold[{name},eps=pi]", thr_pi)
    rep.samples = 3 * len(panels)       # two epsilons and pi per panel
    return rep


# name -> (suite, default size); prop31's size is its grid, lemma52 has none
SUITES = {
    "identities": (run_identities, 10_000),
    "jacobians": (run_jacobians, 1_000),
    "spd": (run_spd, 100),
    "theorem1": (run_theorem1, 1_000),
    "theorem2": (run_theorem2, 20),
    "prop24": (run_prop24, 1_000),
    "prop31": (run_prop31, 50),
    "lemma52": (run_lemma52, None),
}
SUITE_NAMES = tuple(SUITES)
MESH_SUITES = ("jacobians", "spd", "theorem1", "prop24")


def run_suite(name, samples=None, seed=42, grid=None, mesh=None):
    """Run a named certification suite, by default at its default size,
    and time it.

    samples sets the size, or grid for prop31; mesh replaces the built-in
    targets of the mesh-specific suites, and the triangle-level suites
    ignore it.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    run, size = SUITES[name]
    args = () if size is None else ((grid if name == "prop31" else samples) or size,)
    kwargs = {"mesh": mesh} if name in MESH_SUITES else {}
    start = time.perf_counter()
    rep = run(*args, seed=seed, **kwargs)
    rep.wall_time = time.perf_counter() - start
    return rep
