"""Oracles and certification sweeps.

Every sweep draws from numpy's PCG64 streams keyed by the seed, so
reports are reproducible bit for bit and independent of evaluation
order. Every draw is a row or a passing try of one suite target's
stream (`_stream`, STREAM_TAGS). Sampled radii, and lemma52's radius
pairs, are rows: sample i is row i of the (samples, width) block of
uniforms, which `PCG64.advance` reaches alone. Every weight draw that
meets the corner condition is `star_weights`: sample i of a target takes
the i-th passing try of its weight stream, and theorem1's mixed weights,
theorem2's random triples and lemma52's mixed panels the first passing
tries of theorem1:weights, theorem2:weights and lemma52:weights. Suites
return a SweepReport; a run with an empty violation list is a pass.

A suite takes one size (its sample count, or prop31's grid) and a seed,
with defaults in SUITES and run_suite; its other settings are the module
constants below. Metrics and stencil points on one mesh are evaluated a
chunk at a time on a union of copies of it (`_on_copies`), reweighted
copy by copy where each metric has its own weights (spd, jacobians):
every mesh metric of theorem1, prop24, spd and jacobians takes one
assembly per chunk, spd one stacked eigvalsh of its copies' dense L, and
theorem2 one kernel call and one check_batch per chunk of weight triples.
One routine, `_central_differences`, builds every difference stencil, for
one call per batch of triangles or per chunk of curvature stencil points.
"""

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import hypgeom, laplacian
from .errors import CpflowError, DegenerateFaceError, MeshValidationError, check_number
from .hypgeom import NEXT, PREV, ROWS, TrianglePacking, star_violations
from .mesh import WeightedTriangulation, builtin_mesh, simplicial_from_faces

IDENTITY_RADII = (1e-3, 1e2)            # identities: log-uniform triangle radii
MESH_METRICS = 100                      # jacobians: at most this many metrics per mesh
FLOORS = (0.25, 0.5, 1.0)               # theorem1: the radius floors R
C_VALUES = (0.0, -0.3, -0.7, -0.99)     # prop31: the lower ends c of the cosines
DECAY_RADII = (0.1, 10.0)               # lemma52: the range of the opposite radii
FD_STEP = 1e-5      # the FD oracles' step in u; a stencil that leaves is taken at a tenth
MAX_WEIGHT_TRIES = 1_000_000            # the weight sampler gives up after these failing tries

# -- reproducible sampling ----------------------------------------------------

# one block stream per suite target, and one, name:weights, whose passing
# tries, in order, are the target's sampled weights (under keep_even, those
# of its odd metrics); a name's tag is its place in this list, new names last
STREAM_TAGS = {name: tag for tag, name in enumerate([
    "identities", "jacobians", "theorem1", "prop24:tetra", "prop24:genus2_min", "prop24:mesh",
    "identities:weights", "jacobians:weights", "jacobians:tetra", "jacobians:tetra:weights",
    "jacobians:genus2_min", "jacobians:genus2_min:weights", "jacobians:mesh",
    "jacobians:mesh:weights", "jacobians:octa", "jacobians:octa:weights", "spd:tetra",
    "spd:tetra:weights", "spd:genus2_min", "spd:genus2_min:weights", "spd:mesh",
    "spd:mesh:weights", "theorem1:weights", "theorem2:weights", "lemma52:weights",
    "lemma52"], start=1)}


def _stream(seed, tag):
    """Generator of the block stream tag, spawn key (tag, 0)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag, 0)))


def _unit_draws(seed, tag, ids, size):
    """(len(ids), size) uniforms on [0, 1): rows ids.start to ids.stop - 1
    of the (samples, size) block of stream tag, for a range ids. Each
    double is one PCG64 output, so advance(ids.start * size) reaches the
    first row."""
    rng = _stream(seed, tag)
    rng.bit_generator.advance(ids.start * size)
    return rng.random((len(ids), size))


def log_uniform(u, lo, hi):
    """Log-uniform values on [lo, hi] from unit draws u, bit for bit
    exp(Generator.uniform(log lo, log hi)), which maps U to lo + (hi - lo) U."""
    log_lo, log_hi = math.log(lo), math.log(hi)
    return np.exp(log_lo + (log_hi - log_lo) * u)


# weights per block of tries: _FIRST in the first block, then at most
# twice the block before, up to _ROUND. Every call starts small because
# most calls want few tries: each triangle chunk and each 1- or 2-row
# draw is a call of its own. One _ROUND-weight block from the start made
# the six sampling suites slower (median 166 against 160 ms over 40
# interleaved rounds, one thread, 2-core x86-64), with the same reports.
_ROUND, _FIRST = 2**15, 2**11
_FACE_EDGES = np.array([[0], [1], [2]])     # one triangle's edges, as a mesh's edge_rows


def star_weights(rng, edges, count):
    """(rows, error): the first count tries of rng, in draw order, that
    meet the corner condition on every face of edges (3, F), as a mesh's
    edge_rows. A try is E weights, Generator.uniform(0, pi, E), so the rows
    are independent and uniform on the feasible set.

    Tries are drawn a block at a time and screened on face 0 before the
    full test (the screen is a conjunct of it, on the same doubles); then
    `advance` steps rng back past the unused tries (PCG64 advances modulo
    2**128), so it ends where a loop of single tries ends. After
    MAX_WEIGHT_TRIES failing tries since the row before, the sampler gives
    up: rows holds the rows found, and error is the CpflowError the loop
    raises there (else None)."""
    ne = int(edges.max()) + 1
    rows, found = [], 0
    size, last = max(1, _FIRST // ne), -1      # last: the previous passing try, in this block
    while True:
        tries = rng.uniform(0.0, math.pi, (size, ne))
        screened = np.flatnonzero(~star_violations(np.cos(tries[:, edges[:, 0]]).T).any(axis=0))
        passing = screened[~star_violations(np.cos(tries[screened]).T[edges]).any(axis=(0, 1))]
        # a passing try more than MAX_WEIGHT_TRIES after the one before comes too late
        late = np.flatnonzero(np.diff(passing, prepend=last) > MAX_WEIGHT_TRIES)
        taken = passing[:min(count - found, late[0] if len(late) else len(passing))]
        rows.append(tries[taken])
        found += len(taken)
        last = int(taken[-1]) if len(taken) else last
        end = last + 1 + (0 if found == count else MAX_WEIGHT_TRIES)    # past the loop's last try
        if found == count or end <= size:
            rng.bit_generator.advance((end - size) * ne)
            failed = None if found == count else CpflowError(
                "weight rejection sampling did not terminate")
            return np.concatenate(rows), failed
        last -= size
        size = min(2 * size, max(1, _ROUND // ne))


def _star_rows(rng, edges, count):
    """The rows of `star_weights`, or its error raised."""
    rows, failed = star_weights(rng, edges, count)
    if failed is not None:
        raise failed
    return rows


def sample_star_triangles(seed, suite, samples, step, r_lo, r_hi):
    """Yield (ids, packing): the star triangles of the suite's samples, a
    range ids of at most step at a time. Triangle i takes log-uniform radii
    from row i of the (samples, 3) block of stream suite, and its weights
    from the i-th passing try of stream suite:weights, carried from chunk
    to chunk (`star_weights`)."""
    weights = _stream(seed, STREAM_TAGS[f"{suite}:weights"])
    for lo in range(0, samples, step):
        ids = range(lo, min(lo + step, samples))
        rows = _star_rows(weights, _FACE_EDGES, len(ids))
        radii = log_uniform(_unit_draws(seed, STREAM_TAGS[suite], ids, 3), r_lo, r_hi)
        yield ids, TrianglePacking(radii.T.copy(), rows.T.copy())


# faces per kernel call: the triangles of one batch of a triangle suite
# (~800 bytes each at the peak), and the faces of one union of copies in
# `_on_copies`, at least one copy; either keeps a call within a few MB
_BATCH = 2**11


def _on_copies(f, mesh, rows, phi=None):
    """(first row, f(union, chunk.ravel())) for each chunk of m =
    max(1, _BATCH // F) of the (k, n) rows. The union is mesh.copies(m),
    built once per chunk size. With per-metric weights phi (j, E), the rows
    fall in j equal runs, run i weighted by phi[i], and each chunk's union
    is mesh.copies(m).with_weights of its rows' weights. No union outlives
    the call. If a chunk raises, its rows are evaluated one at a time on
    the mesh with their weights, so the error raised is the first failing
    row's: every check is per face or per vertex, so a union raises exactly
    when one of its rows does."""
    step = max(1, _BATCH // mesh.face_count)
    m = copies = None
    for i in range(0, len(rows), step):
        chunk = rows[i:i + step]
        if len(chunk) != m:         # the full size, then the tail
            m, copies = len(chunk), mesh.copies(len(chunk))
        weights = None if phi is None else phi[np.arange(i, i + m) * len(phi) // len(rows)]
        try:
            out = f(copies if phi is None else copies.with_weights(weights.ravel()), chunk.ravel())
        except CpflowError:
            for k, row in enumerate(chunk):
                f(mesh if phi is None else mesh.with_weights(weights[k]), row)
            raise
        yield i, out


# -- finite-difference oracles -------------------------------------------------

def fd_angle_jacobian(tp: TrianglePacking) -> np.ndarray:
    """(3, 3, N) central differences of the corner angles in u, [a, b, i] =
    d theta_a / d u_b: `_central_differences`, all N in one kernel call."""
    def angles(r, ids):
        return hypgeom.triangle_geometry(
            TrianglePacking(r.T.copy(), np.repeat(tp.weights[:, ids], 6, axis=1))).angles.T

    u0 = laplacian.u_of_r(tp.radii).T
    return _central_differences(angles, u0, np.arange(len(u0))).transpose(1, 2, 0)


def fd_curvature_jacobian(mesh, r, phi=None) -> np.ndarray:
    """Central differences of the curvature vector with respect to u: (n, n)
    at one metric r (n,), or (k, n, n) at k metrics r (k, n), metric i
    weighted by phi[i] if phi (k, E) is given (`_central_differences`). If
    radii fail validate_radii, metrics go one at a time, and that one raises."""
    r = np.asarray(r, dtype=float)
    if r.ndim == 1:
        phi = None if phi is None else np.asarray(phi)[None]
        return fd_curvature_jacobian(mesh, laplacian.validate_radii(mesh, r)[None], phi)[0]
    if r.shape[1:] != (mesh.vertex_count,) or not np.all((r > 0.0) & (r <= hypgeom.RADIUS_CAP)):
        return np.stack([fd_curvature_jacobian(mesh, r[i], None if phi is None else phi[i])
                         for i in range(len(r))])

    def curvatures(r_st, ids):
        w = None if phi is None else phi[ids]
        return np.concatenate([K for _, K in _on_copies(laplacian.curvature, mesh, r_st, w)])

    return _central_differences(curvatures, laplacian.u_of_r(r), np.arange(len(r)))


def _central_differences(f, u0, ids, h=None):
    """(k, m, n) central differences of f at the k points u0 (k, n), [i, a, b]
    = d f_a / d u_b at point i, from one call f(r_of_u(u), ids) -> (2 n k, m)
    on point i's rows u0[i] + h e_b, then u0[i] - h e_b, for b < n. The step
    h is FD_STEP, or FD_STEP / 10 where u0[i] + FD_STEP leaves u < 0 or the
    FD_STEP stencil raises DegenerateFaceError. If f raises a CpflowError,
    the points are taken one at a time: the first failing point's error is raised."""
    k, n = u0.shape
    if h is None:
        h = np.where(np.all(u0 + FD_STEP < 0.0, axis=1), FD_STEP, 0.1 * FD_STEP)
    try:
        if np.any(u0 + h[:, None] >= 0.0):
            raise DegenerateFaceError("finite-difference stencil leaves the admissible set")
        u = np.repeat(u0, 2 * n, axis=0).reshape(k, -1)     # each point's 2 n rows, flat
        u[:, ::2 * n + 1] += h[:, None]         # entry b of row 2 b
        u[:, n::2 * n + 1] -= h[:, None]        # entry b of row 2 b + 1
        y = f(laplacian.r_of_u(u.reshape(-1, n)), ids).reshape(k, n, 2, -1)
        return ((y[:, :, 0] - y[:, :, 1]) / (2.0 * h[:, None, None])).transpose(0, 2, 1).copy()
    except DegenerateFaceError:
        if k == 1 and h[0] == FD_STEP:
            return _central_differences(f, u0, ids, 0.1 * h)
        if k == 1:
            raise DegenerateFaceError("finite-difference stencil leaves the admissible set") from None
    except CpflowError:
        if k == 1:
            raise
    return np.concatenate([_central_differences(f, u0[[i]], ids[[i]]) for i in range(k)])


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
    tp = mesh.packing
    phi_bar = min(0.0, float(tp.cos_w.min()))   # every edge is in two faces
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
    # per corner t: 32 a^10 ((1 - cos^2 phi_t) + gamma_{t+1} + gamma_{t+2})
    gam = tp.gammas
    m4 = 32.0 * a**10 * (tp.one_minus_cos2 + gam.take(NEXT, axis=0) + gam.take(PREV, axis=0))
    return BoundConstants(
        R=r_floor, a=a, phi_bar=phi_bar,
        m1=m1, m2=2.0, m3=5.0, m5=6.0, m6=m6, m7=19.0, m8=m8,
        a1=a1, a2=a2, a3=a3,
        n_vertices=mesh.vertex_count, m4_per_face=tuple(map(tuple, m4.T.tolist())),
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


def closed_form_pair(tp: TrianglePacking):
    """(t1, t2) for each edge role straight from the triangle kernel.

    Both are (3, N): row t is the edge joining corners t+1 and t+2, with
    t1 = d theta_{t+2} / d u_{t+1} and t2 = t1 (cosh l_t - 1). The
    discriminant denominator is used because it is built from radii
    products alone and keeps full precision at the mixed-extreme radii the
    boundary rays visit; its agreement with the production denominator is
    certified separately.
    """
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
    m, z = grid_n + 1, ticks[None, None, :]
    best, argmin = math.inf, None
    # a pass holds ~2**15 points and ~2 MB: whole x-planes while one fits,
    # else one x value and a band of y values
    slab, band = max(1, 2**15 // m**2), min(m, max(1, 2**15 // m))
    for lo in range(0, m, slab):
        x = ticks[lo:lo + slab, None, None]
        for y_lo in range(0, m, band):
            y = ticks[None, y_lo:y_lo + band, None]
            cxy, cyx, czx = x + y * z, y + x * z, z + x * y
            val = np.where((cxy >= 0.0) & (cyx >= 0.0) & (czx >= 0.0),
                           2.0 - x * x - y * y + cxy + cyx + czx, math.inf)
            i, j, k = np.unravel_index(np.argmin(val), val.shape)
            if val[i, j, k] < best:
                best = float(val[i, j, k])
                argmin = (float(x[i, 0, 0]), float(y[0, j, 0]), float(ticks[k]))
    return best, argmin


# -- angle decay scan ------------------------------------------------------------

def angle_decay_threshold(weights, epsilon, seed=0):
    """Smallest tested radius l such that the corner angle stays below
    epsilon for r_i in {l, 2l, 4l} against opposite radii r_j, r_k at the
    corners of DECAY_RADII and sampled log-uniformly from it, pair k from
    row k of the (_DECAY_SAMPLES, 2) block of stream lemma52.

    Returns (threshold, found). found is False when even the radius cap
    fails, which would falsify the decay claim numerically.
    """
    if not (epsilon > 0.0):
        raise ValueError("epsilon must be positive")
    lo_r, hi_r = DECAY_RADII
    pairs = [(lo_r, lo_r), (lo_r, hi_r), (hi_r, hi_r)]
    pairs += log_uniform(_unit_draws(seed, STREAM_TAGS["lemma52"], range(_DECAY_SAMPLES), 2),
                         lo_r, hi_r).tolist()
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

    def check_batch(self, samples, checks):
        """Bound checks over a batch of samples.

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


def run_identities(samples, seed):
    """Row identity with chain-rule diagonals, pairwise symmetry, sign of
    the off-diagonal derivatives, and equality of the two denominator
    representations, on random admissible triangles."""
    rep = SweepReport("identities", seed, samples)
    for ids, tp in sample_star_triangles(seed, "identities", samples, _BATCH, *IDENTITY_RADII):
        rep.check_batch(ids, _identity_checks(tp))
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


def _mesh_metrics(base, seed, target, count, r_hi, keep_even=False):
    """(phi, radii, error): the weights (k, E) and radii (k, n) of count
    metrics on base for the suite target. Metric i takes log-uniform radii
    on [0.1, r_hi] from row i of stream target, and its weights from the
    next passing try of stream target:weights (`star_weights`), or base's
    own for an even i if keep_even. If the sampler gives up at a metric,
    the metrics before it come back with its error, which the caller
    raises after checking them, as a loop over the metrics would."""
    every = 2 if keep_even else 1       # reweighted: metrics every - 1, 2 every - 1, ...
    weights, failed = star_weights(_stream(seed, STREAM_TAGS[f"{target}:weights"]),
                                   base.edge_rows, count // every)
    count = count if failed is None else every * len(weights) + every - 1
    phi = np.tile(base.phi, (count, 1))
    phi[every - 1::every] = weights
    units = _unit_draws(seed, STREAM_TAGS[target], range(count), base.vertex_count)
    return phi, log_uniform(units, 0.1, r_hi), failed


def run_jacobians(samples, seed, mesh=None):
    """Analytic derivatives against central finite differences: per-triangle
    angle Jacobians, then mesh-level curvature Jacobians on
    min(MESH_METRICS, samples) metrics per mesh, their symmetry, and the
    zero pattern across non-adjacent vertex pairs. Each chunk of mesh
    metrics is one assembly of a union of reweighted copies."""
    rep = SweepReport("jacobians", seed, samples)
    # a triangle's stencil has 6 points
    for ids, tp in sample_star_triangles(seed, "jacobians", samples, _BATCH // 6, 0.1, 10.0):
        err = matrix_rel_error(fd_angle_jacobian(tp), hypgeom.angle_jacobian(tp))
        rep.check_batch(ids, [("angle_fd_matrix_rel", err, ANGLE_FD_RTOL, "upper")])
    for name, base in _targets(mesh):
        count, n = min(MESH_METRICS, samples), base.vertex_count
        phi, radii, failed = _mesh_metrics(base, seed, f"jacobians:{name}", count, 5.0,
                                           keep_even=True)
        ids = [f"{name}:{i}" for i in range(count)]

        # both stages in one f: a failing chunk redoes each row's assembly
        # and then its differences, in the order of a loop over the metrics
        def assemble_and_fd(union, r):
            return (laplacian.assemble(union, r), fd_curvature_jacobian(
                base, r.reshape(-1, n), union.phi.reshape(-1, base.edge_count)))

        for i, (asm, fd) in _on_copies(assemble_and_fd, base, radii, phi):
            L = asm.dense_blocks(n)
            err = np.abs(fd - L) - np.maximum(CURVATURE_FD_RTOL * np.abs(L), CURVATURE_FD_ATOL)
            rep.check_batch(ids[i:i + len(L)], [
                ("ab_identity_residual", np.full(len(L), asm.ab_residual), AB_IDENTITY_RTOL,
                 "upper"),
                ("curvature_fd_margin", err.max(axis=(1, 2)), 0.0, "upper"),
                ("curvature_fd_symmetry", np.abs(fd - fd.transpose(0, 2, 1)).max(axis=(1, 2)),
                 FD_SYMMETRY_ATOL, "upper"),
            ])
        if failed is not None:
            raise failed
    octa = _octahedron()
    phi, radii, failed = _mesh_metrics(octa, seed, "jacobians:octa", 20, 5.0, keep_even=True)
    fd = fd_curvature_jacobian(octa, radii, phi)     # metric 0 keeps octa's weights: k >= 1
    rep.check_batch([f"octa:{i}" for i in range(len(fd))], [
        ("nonadjacent_fd_entry", np.abs(fd[:, a, b]), CURVATURE_FD_ATOL, "upper")
        for a, b in [(0, 5), (1, 3), (2, 4)]])
    if failed is not None:
        raise failed
    return rep


def run_spd(samples, seed, mesh=None):
    """Positive definiteness and exact symmetry of L on random admissible
    metrics over the built-in meshes. Each chunk of metrics is one
    assembly of a union of reweighted copies, and its copies' dense L one
    stacked eigvalsh."""
    rep = SweepReport("spd", seed, samples)
    for name, base in _targets(mesh):
        n = base.vertex_count
        phi, radii, failed = _mesh_metrics(base, seed, f"spd:{name}", samples, 10.0)
        ids = [f"{name}:{i}" for i in range(samples)]
        for i, asm in _on_copies(laplacian.assemble, base, radii, phi):
            L = asm.dense_blocks(n)
            min_eig = np.linalg.eigvalsh(L)[:, 0]
            diag = np.diagonal(L, axis1=1, axis2=2)
            margin = diag - (np.sum(np.abs(L), axis=2) - np.abs(diag))
            A = asm.A.reshape(len(L), n)
            rep.check_batch(ids[i:i + len(L)], [
                ("min_eigenvalue", min_eig, 0.0, "lower"),
                ("min_eigenvalue_nonpositive", min_eig, 0.0, "fail", min_eig <= 0.0),
                ("symmetry_residual", np.abs(L - L.transpose(0, 2, 1)).max(axis=(1, 2)),
                 0.0, "upper"),
                ("diag_dominance_margin", margin.min(axis=1), 0.0, "lower"),
                ("dominance_margin_vs_A", (np.abs(margin - A) / (1.0 + np.abs(A))).max(axis=1),
                 1e-9, "upper"),
            ])
        if failed is not None:
            raise failed
    return rep


def run_theorem1(samples, seed, mesh=None):
    """Certify a1 <= A_i <= a2 and 0 <= B_e <= a3 for radii in [R, R + 5],
    the floor itself included, for each floor R in FLOORS, on the
    tetrahedron with zero and with mixed admissible weights. Each metric
    is drawn once and mapped to every floor."""
    base = mesh if mesh is not None else builtin_mesh("tetra")
    weights = _star_rows(_stream(seed, STREAM_TAGS["theorem1:weights"]), base.edge_rows, 1)
    mixed = base.with_weights(weights[0])
    n = base.vertex_count
    units = _unit_draws(seed, STREAM_TAGS["theorem1"], range(samples), n)
    ids = ["boundary", *range(samples)]
    rep = SweepReport("theorem1", seed, (samples + 1) * len(FLOORS) * 2)     # "boundary" too
    for r_floor in FLOORS:
        # Generator.uniform(r_floor, r_floor + 5.0, n) of each sample, from its unit draws
        radii = np.vstack((np.full(n, r_floor), r_floor + ((r_floor + 5.0) - r_floor) * units))
        for mode, mesh in (("zero", base), ("mixed", mixed)):
            consts = floor_bound_constants(mesh, r_floor)
            tag = f"[R={r_floor},{mode}]"
            for i, asm in _on_copies(laplacian.assemble, mesh, radii):
                A = asm.A.reshape(-1, n)
                B = asm.B.reshape(len(A), -1)
                rep.check_batch(ids[i:i + len(A)], [
                    (f"A_min{tag}", A.min(axis=1), consts.a1, "lower"),
                    (f"A_max{tag}", A.max(axis=1), consts.a2, "upper"),
                    (f"B_min{tag}", B.min(axis=1), 0.0, "lower"),
                    (f"B_max{tag}", B.max(axis=1), consts.a3, "upper"),
                    (f"ab_identity_residual{tag}", np.full(len(A), asm.ab_residual),
                     AB_IDENTITY_RTOL, "upper"),
                ])
    return rep


# -- uniform bound sweep (single triangle, all radii) ---------------------------

STABILIZATION_RTOL = 0.05
_RAY_POINTS = 36
_GRID_PER_AXIS = 6      # radii per axis of theorem2's log grid
_DEGREE = 3             # C1_candidate assumes vertex degree 3; genus2_min reaches 16
_DECAY_SAMPLES = 24     # sampled radius pairs of angle_decay_threshold


def _log_space(lo, hi, n):
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


def _boundary_decade_count(ts):
    """Number of leading points of an ascending ray within one decade of
    its boundary end ts[0]."""
    return int(np.sum(ts <= 10.0 * ts[0]))


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
        rays.append((f"large_r{idx}", pts, 0))    # no stabilization check
    return rays


@np.errstate(invalid="ignore", divide="ignore")
def _rel_gap(p, t):
    """|p - t| relative to the larger magnitude; 0 below 1e-250, where both
    routes are deep in underflow scale and a relative comparison is
    meaningless."""
    big = np.maximum(np.abs(t), np.abs(p))
    return np.where(big < 1e-250, 0.0, np.abs(p - t) / big)


def default_weight_triples(count, seed):
    """Named corner cases plus the first count - 5 passing tries of stream
    theorem2:weights, as count triples in all (the 5 named ones at least)."""
    triples = [
        (0.0, 0.0, 0.0),
        (0.0, math.pi / 2, math.pi / 2),       # derivative vanishes on one edge
        # near the boundary pair-sum pi, nudged inside so cos rounding
        # cannot flip a corner sign on another libm
        (0.0, 2.0, math.pi - 2.0 - 1e-9),
        (0.5, 0.5, 0.5),
        (math.pi / 2, math.pi / 2, math.pi / 2),
    ]
    rows = _star_rows(_stream(seed, STREAM_TAGS["theorem2:weights"]), _FACE_EDGES,
                      max(0, count - len(triples)))
    return triples + list(map(tuple, rows.tolist()))


def _triple_pairs(triples, first, radii):
    """(packing, (t1, t2)): closed_form_pair at every point of radii (3, P)
    under each weight triple, triple k on columns k P to (k + 1) P - 1, in
    one kernel call. If a triple breaks the corner condition or the call
    raises, the triples are taken one at a time, each checked and then
    evaluated, so the error raised is the one a loop over them raises."""
    def packing(ws):
        w = np.repeat(np.array(ws, dtype=float).T, radii.shape[1], axis=1)
        return TrianglePacking(np.tile(radii, len(ws)), w)

    def admissible(k, weights):
        if star_violations(np.cos(np.array(weights, dtype=float))).any():
            raise ValueError(f"weight triple {first + k} violates the corner condition")

    try:
        for k, weights in enumerate(triples):
            admissible(k, weights)
        tp = packing(triples)
        return tp, closed_form_pair(tp)
    except (CpflowError, ValueError):
        for k, weights in enumerate(triples):
            admissible(k, weights)
            closed_form_pair(packing([weights]))
        raise


def run_theorem2(samples, seed):
    """For each of default_weight_triples(samples, seed): sweep a radii log
    grid plus the boundary rays, asserting finiteness and nonnegativity of
    the edge derivative forms, cross-checking the polynomial
    representation, and requiring the running sup to stabilize on the
    boundary decade of every shrinking ray. The P points of a triple are
    evaluated max(1, _BATCH // P) triples at a time: one kernel call and
    one check_batch per chunk. Violations are listed as a loop over the
    triples and segments lists them: point by point, and a ray's
    stabilization after the points of that ray."""
    grid = _log_space(1e-6, 1e2, _GRID_PER_AXIS)
    grid_points = [(x, y, z) for x in grid for y in grid for z in grid]
    segments = [("grid", grid_points, 0)] + _uniform_bound_rays()
    names = [f"grid({x:.1e},{y:.1e},{z:.1e})" for x, y, z in grid_points]
    names += [f"{ray}:{i}" for ray, pts, _ in segments[1:] for i in range(len(pts))]
    radii = np.array([p for _, pts, _ in segments for p in pts]).T
    npts = radii.shape[1]
    bounds = np.cumsum([0] + [len(pts) for _, pts, _ in segments])
    # the points of each segment past its boundary decade, the ray points,
    # and the rays whose sup must stabilize (not the r -> infinity ones)
    rest = np.concatenate([np.arange(len(pts)) >= nb for _, pts, nb in segments])
    on_ray = np.arange(npts) >= bounds[1]
    shrinking = np.array([name != "grid" and not name.startswith("large_r")
                          for name, _, _ in segments])
    triples = default_weight_triples(samples, seed)
    rep = SweepReport("theorem2", seed, npts * len(triples))
    step = max(1, _BATCH // npts)
    for lo in range(0, len(triples), step):
        tp, (t1, t2) = _triple_pairs(triples[lo:lo + step], lo, radii)
        count, r, w = tp.weights.shape[1] // npts, tp.radii, tp.weights
        finite = np.isfinite(t1) & np.isfinite(t2)
        # edge t joins corners i = t + 1 and j = t + 2
        p1, p2 = poly_pair_derivative(SubstitutedCoords.from_radii(
            r.take(NEXT, axis=0), r.take(PREV, axis=0), r,
            w, w.take(PREV, axis=0), w.take(NEXT, axis=0)))
        crossed = finite & np.isfinite(p1) & np.isfinite(p2)
        cross = np.maximum(_rel_gap(p1, t1), _rel_gap(p2, t2))
        # per corner, the face's contribution to A: t2 of the two edges at it
        face_a = t2.take(PREV, axis=0) + t2.take(NEXT, axis=0)
        if finite.any():
            rep.record_sup("t1_sup", t1[finite].max())
            rep.record_sup("t2_sup", t2[finite].max())
        checks = []
        for t in range(3):
            checks += [(f"finite_t1_t2[edge{t}]", t1[t], math.inf, "fail", ~finite[t]),
                       ("t1_min", t1[t], 0.0, "lower", finite[t]),
                       ("t2_min", t2[t], 0.0, "lower", finite[t]),
                       ("poly_cross_check", cross[t], DENOMINATOR_EQUIV_RTOL, "upper", crossed[t])]
        for a in face_a:
            checks += [("face_A_contribution", a, 0.0, "lower"),
                       ("face_A_contribution_nonpositive", a, 0.0, "fail", a <= 0.0)]
        first = len(rep.violations)
        rep.check_batch(range(count * npts), checks)    # samples are positions until relabelled
        keys = [v["sample"] for v in rep.violations[first:]]
        for v, p in zip(rep.violations[first:], keys):
            v["sample"] = f"w{lo + p // npts}:{names[p % npts]}"
        # per point, the largest finite t1 and t2 over the edges, else 0
        has = finite.any(axis=0)
        m = np.where(has, np.where(finite, np.stack((t1, t2)), -math.inf).max(axis=1), 0.0)
        m = m.reshape(2, count, npts)
        # the grid records edge values, not point maxima: its points with
        # no finite edge are left out
        sups = np.where(has.reshape(count, npts) | on_ray, m, -math.inf).max(axis=2).tolist()
        # the boundary decade must not lift a ray's running sup by more than
        # 5%: that is the numerical content of "the sup stabilizes along the ray"
        seg_max = np.maximum.reduceat(m, bounds[:-1], axis=2)
        rest_max = np.maximum.reduceat(np.where(rest, m, -math.inf), bounds[:-1], axis=2)
        limit = (1.0 + STABILIZATION_RTOL) * np.where(rest_max == -math.inf, 0.0, rest_max)
        lifted = (seg_max > limit + 1e-12) & shrinking
        for k, s, kind in np.argwhere(lifted.transpose(1, 2, 0)).tolist():
            rep.violate(f"w{lo + k}:{segments[s][0]}", f"t{kind + 1}_sup_stabilization",
                        seg_max[kind, k, s], limit[kind, k, s])
            keys.append(k * npts + bounds[s + 1] - 0.5)
        checked = np.count_nonzero(crossed.reshape(3, count, npts), axis=(0, 2)).tolist()
        for k in range(count):
            w_idx = lo + k
            rep.record_sup(f"t1_sup[w{w_idx}]", sups[0][k])
            rep.record_sup(f"t2_sup[w{w_idx}]", sups[1][k])
            rep.record_sup(f"C1_candidate[w{w_idx}]", 2.0 * _DEGREE * sups[1][k])
            rep.record_sup(f"C2_candidate[w{w_idx}]", 2.0 * sups[0][k])
            rep.record_sup(f"poly_cross_checked[w{w_idx}]", float(checked[k]))
        if crossed.any():
            rep.record_sup("poly_cross_check_max", cross[crossed].max())
        # a stable sort puts each ray's stabilization after its points' violations
        listed = rep.violations[first:]
        rep.violations[first:] = [listed[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]
    return rep


def run_prop24(samples, seed, mesh=None):
    """Zero-weight bounds 0 < B < 1 and 0 < A_i < d_i cosh 1 on the
    built-in meshes over random metrics."""
    rep = SweepReport("prop24", seed, samples)
    cosh1 = math.cosh(1.0)
    # hypothesis: zero weights
    for name, mesh in _targets(None if mesh is None else mesh.with_uniform_weight(0.0)):
        deg = np.asarray(mesh.degrees(), dtype=float)
        ids = [f"{name}:{i}" for i in range(samples)]
        units = _unit_draws(seed, STREAM_TAGS[f"prop24:{name}"], range(samples), mesh.vertex_count)
        radii = log_uniform(units, 1e-3, 50.0)
        for i, asm in _on_copies(laplacian.assemble, mesh, radii):
            A = asm.A.reshape(-1, mesh.vertex_count)
            B = asm.B.reshape(len(A), -1)
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


def run_prop31(grid_n, seed):
    """Constrained grid minima of the cosine-triple expression for each c
    in C_VALUES; the bound 1 + c is exact, no tolerance."""
    rep = SweepReport("prop31", seed, len(C_VALUES))
    for c in C_VALUES:
        val, arg = cosine_inequality_bruteforce(c, grid_n)
        rep.record_inf(f"min[c={c:g}]", val)
        if not (val >= 1.0 + c):
            rep.violate(f"c={c:g}", "grid_minimum", val, 1.0 + c)
    return rep


def run_lemma52(seed):
    """Angle decay thresholds: finite for every epsilon, monotone as
    epsilon shrinks."""
    mixed = _star_rows(_stream(seed, STREAM_TAGS["lemma52:weights"]), _FACE_EDGES, 2).tolist()
    panels = [("zero", (0.0, 0.0, 0.0))] + [(f"mixed{i}", tuple(w)) for i, w in enumerate(mixed)]
    rep = SweepReport("lemma52", seed, 3 * len(panels))     # two epsilons and pi per panel
    for name, weights in panels:
        last = None
        for eps in (1e-3, 1e-6):
            thr, found = angle_decay_threshold(weights, eps, seed)
            rep.record_sup(f"threshold[{name},eps={eps:g}]", thr)
            if not found:
                rep.violate(f"{name}:eps={eps:g}", "threshold_not_found", thr,
                            hypgeom.RADIUS_CAP)
            if last is not None and thr < last * (1.0 - 1e-9):
                rep.violate(f"{name}:eps={eps:g}", "threshold_monotonicity", thr, last)
            last = thr
        thr_pi, _ = angle_decay_threshold(weights, math.pi, seed)
        rep.record_inf(f"threshold[{name},eps=pi]", thr_pi)
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


def check_suite_args(name, size, seed, mesh=None):
    """Refuse, with ValueError, an unknown suite, a size that is not an
    integer of at least 1 where one is given, a seed that is not a
    nonnegative integer (`check_number`), and a mesh, where one is given,
    that is no WeightedTriangulation. prop31 refuses a grid below 10 itself."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if size is not None:
        check_number("size", size, 1)
    check_number("seed", seed, 0)
    if mesh is not None and not isinstance(mesh, WeightedTriangulation):
        raise ValueError(f"mesh must be a WeightedTriangulation, got {type(mesh).__name__}")


def run_suite(name, size=None, seed=42, mesh=None):
    """Run a named certification suite and time it. size is its sample
    count, or prop31's grid, and None selects the default in SUITES;
    lemma52 takes none. mesh replaces the built-in targets of the
    mesh-specific suites; the triangle-level suites ignore it."""
    check_suite_args(name, size, seed, mesh)
    run, default = SUITES[name]
    args = () if default is None else (default if size is None else size,)
    kwargs = {"mesh": mesh} if name in MESH_SUITES else {}
    start = time.perf_counter()
    rep = run(*args, seed=seed, **kwargs)
    rep.wall_time = time.perf_counter() - start
    return rep
