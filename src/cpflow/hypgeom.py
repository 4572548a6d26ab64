"""The triangle kernel: lengths, angles and angle derivatives of packed
hyperbolic triangles, over a batch.

Every per-triangle array is (3, N): row t holds corner t, or the edge
opposite corner t, of each of N triangles, and a single triangle is N = 1.
Mesh curvature and assembly in `laplacian` and the single-triangle suites
in `verify` all evaluate their triangles here.

Everything is evaluated through shifted identities (cosh l - 1 and
1 +/- cos theta as products of nonnegative sinh factors), so no cosine-law
ratio cancels; the naive ratio loses all precision once angles shrink
below ~1e-8. A failed check raises its error class and names the first
failing face, its index along the batch axis.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateFaceError, RadiusOverflowError, StarConditionError

RADIUS_CAP = 700.0
A_NORM_FLOOR = 1e-300

# rows of a (3, N) array: corner t + 1 and t + 2 (mod 3), all three corners,
# and the corner pair (a, b), a < b, opposite corner t
NEXT = np.array([1, 2, 0])
PREV = np.array([2, 0, 1])
ROWS = np.array([0, 1, 2])
PAIR_A = np.array([1, 0, 0])
PAIR_B = np.array([2, 2, 1])


def _quiet(fn):
    """Silence floating-point warnings in fn: overflow to inf and the nan
    it makes are caught by the checks below."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")(fn)


def _require(ok, error, what):
    """Raise error naming the first face (last axis of ok) where ok fails."""
    if np.count_nonzero(ok) < ok.size:
        fid = int(np.argmin(ok.reshape(-1, ok.shape[-1]).all(axis=0)))
        raise error(f"face {fid}: {what}")


class TrianglePacking:
    """Radii at the corners and weights on the opposite edges of N
    triangles, (3, N) arrays; three values each, (3,), make N = 1.

    sinh and cosh of the radii, the cosines of the weights and the corner
    values gamma of the star condition are computed once here.
    """

    def __init__(self, radii, weights):
        radii, weights = np.asarray(radii, dtype=float), np.asarray(weights, dtype=float)
        if radii.shape[:1] != (3,) or radii.ndim > 2 or weights.shape != radii.shape:
            raise ValueError("TrianglePacking needs three radii and three weights per triangle")
        radii, weights = radii.reshape(3, -1), weights.reshape(3, -1)
        _require((radii > 0.0) & (radii <= RADIUS_CAP), RadiusOverflowError,
                 f"radius outside (0, {RADIUS_CAP}]")
        _require((weights >= 0.0) & (weights < math.pi), ValueError, "weight outside [0, pi)")
        self.weights = weights
        self.cos_w = g = np.cos(weights)
        self.one_minus_cos2 = 1.0 - g * g
        self.gammas = g + g.take(NEXT, axis=0) * g.take(PREV, axis=0)
        self.radii, self.sinh_r, self.cosh_r = radii, np.sinh(radii), np.cosh(radii)

    def with_radii(self, r, corners):
        """The same weights at the radii r[corners], for r per vertex of a
        mesh, already checked to lie in (0, RADIUS_CAP], and corners the
        (3, N) vertex ids; sinh and cosh are taken once per vertex."""
        tp = object.__new__(TrianglePacking)
        tp.__dict__.update(self.__dict__, radii=r.take(corners),
                           sinh_r=np.sinh(r).take(corners), cosh_r=np.cosh(r).take(corners))
        return tp

    def require_star(self):
        _require(self.gammas >= 0.0, StarConditionError, "corner condition fails")


def half_angles(phi):
    """(cos, sin) of phi / 2, the form in which `edge_terms` takes the
    weights."""
    half = 0.5 * phi
    return np.cos(half), np.sin(half)


@dataclass
class TriangleGeometry:
    """Per corner (3, N), edge t opposite corner t, or per triangle (N,)."""

    cosh_l_minus_1: np.ndarray
    sinh_l: np.ndarray
    lengths: np.ndarray
    angles: np.ndarray        # inner angles at the corners
    area: np.ndarray          # pi - sum of angles
    cos_angles: np.ndarray
    sin_angles: np.ndarray
    sinh_s: np.ndarray        # sinh of the half perimeter s
    sinh_excess: np.ndarray   # sinh(s - l_t)

    @cached_property
    def cosh_l(self):
        return 1.0 + self.cosh_l_minus_1

    @cached_property
    def a_norm(self):
        """sinh l_ab sinh l_ac sin theta_a: by the law of sines the same at
        every corner, and equal to 2 sqrt(sinh s * prod sinh(s - l_t))."""
        e = self.sinh_excess
        return 2.0 * np.sqrt(self.sinh_s * e[0] * e[1] * e[2])


@_quiet
def edge_terms(r_a, r_b, half):
    """(cosh l - 1, sinh l, l) of packed edges elementwise, with half the
    `half_angles` of their weights; overflow gives inf or nan, which
    `triangle_geometry` rejects.

    cosh l - 1 = cosh r_a cosh r_b + cos(phi) sinh r_a sinh r_b - 1 is
    formed as a sum of nonnegative terms, which never cancels, so both tiny
    radii and weights close to pi keep full precision (1 +/- cos phi enter
    as squared half-angle values).
    """
    cp = half[0] * np.sinh(0.5 * (r_a + r_b))
    sm = half[1] * np.sinh(0.5 * (r_a - r_b))
    wm1 = 2.0 * cp * cp + 2.0 * sm * sm
    # the branched form of sinh l never overflows before cosh l - 1 does
    sinh_l = np.where(wm1 > 1.0, wm1 * np.sqrt(1.0 + 2.0 / wm1), np.sqrt(wm1 * (wm1 + 2.0)))
    return wm1, sinh_l, np.log1p(wm1 + sinh_l)


@_quiet
def triangle_geometry(tp: TrianglePacking = None, edges=None) -> TriangleGeometry:
    """Lengths, angles and area of packed triangles.

    The geometry depends on the edges alone: edges is the `edge_terms`
    triple for the edge opposite each corner, (3, N) arrays, which a mesh
    computes once per edge. Without it they are computed from tp.
    """
    if edges is None:
        edges = edge_terms(tp.radii.take(NEXT, axis=0), tp.radii.take(PREV, axis=0),
                           half_angles(tp.weights))
    wm1, sinh_l, lengths = edges
    _require(np.isfinite(wm1), RadiusOverflowError, "radii overflow cosh of an edge length")

    # half perimeter and its excesses; positivity is the triangle inequality
    s = 0.5 * (lengths[0] + lengths[1] + lengths[2])
    excess = 0.5 * (lengths.take(NEXT, axis=0) + lengths.take(PREV, axis=0) - lengths)
    _require(excess > 0.0, DegenerateFaceError, "triangle inequality fails")
    sinh_s = np.sinh(s)
    _require(np.isfinite(sinh_s), RadiusOverflowError, "perimeter overflows sinh")
    sinh_exc = np.sinh(excess)
    # 1 - cos and 1 + cos of the corner angles, nonnegative products
    den = sinh_l.take(NEXT, axis=0) * sinh_l.take(PREV, axis=0)
    delta = 2.0 * sinh_exc.take(NEXT, axis=0) * sinh_exc.take(PREV, axis=0) / den
    sigma = 2.0 * sinh_s * sinh_exc / den
    cos_a = 0.5 * (sigma - delta)
    sin_a = np.sqrt(delta * sigma)
    angles = np.arctan2(sin_a, cos_a)
    _require(np.isfinite(angles), RadiusOverflowError, "radii overflow the corner angles")
    area = math.pi - angles[0] - angles[1] - angles[2]
    _require(area > 0.0, DegenerateFaceError, "nonpositive area")
    return TriangleGeometry(wm1, sinh_l, lengths, angles, area, cos_a, sin_a, sinh_s, sinh_exc)


def _numerator(tp, a, b, c):
    """Numerator of d theta_a / d u_b, c the third corner; all three terms
    are >= 0 under the corner condition, so the sum never cancels."""
    S, C = tp.sinh_r, tp.cosh_r
    sa, sb, sc = S.take(a, axis=0), S.take(b, axis=0), S.take(c, axis=0)
    gam = tp.gammas
    return (
        C.take(c, axis=0) * sa * sa * sb * sb * tp.one_minus_cos2.take(c, axis=0)
        + C.take(a, axis=0) * sa * sb * sb * sc * gam.take(b, axis=0)
        + C.take(b, axis=0) * sa * sa * sb * sc * gam.take(a, axis=0)
    )


@_quiet
def pair_derivative(tp, a, b, geom=None, use_delta=False):
    """d theta_a / d u_b (a != b) from the closed form with roles (a, b).

    a and b are corner indices, or equal-length index arrays for several
    pairs at once (one row each). The default denominator is
    a_norm * sinh^2 l_ab; with use_delta=True it is
    sqrt(delta_invariant) * sinh^2 l_ab, the discriminant representation.
    The two are not assumed equal; the identities suite certifies their
    agreement to 1e-9.
    """
    if geom is None:
        geom = triangle_geometry(tp)
    c = 3 - a - b
    sinh_lab = geom.sinh_l.take(c, axis=0)
    scale = np.sqrt(delta_invariant(tp)) if use_delta else geom.a_norm
    den = scale * sinh_lab * sinh_lab
    _require(den >= A_NORM_FLOOR, DegenerateFaceError, "angle normalization below floor")
    d = _numerator(tp, a, b, c) / den
    _require(np.isfinite(d), RadiusOverflowError, "radii overflow the angle derivatives")
    return d


def delta_invariant(tp: TrianglePacking):
    """Symmetric discriminant of each triangle; every term is nonnegative
    under the corner condition, so the direct evaluation is stable at all
    radii."""
    g0, g1, g2 = tp.cos_w
    m0, m1, m2 = tp.one_minus_cos2
    S0, S1, S2 = tp.sinh_r
    C0, C1, C2 = tp.cosh_r
    # weights: g0 opposite corner 0 (edge 12), g1 opposite 1 (edge 02),
    # g2 opposite 2 (edge 01)
    return (
        (2.0 + 2.0 * g0 * g1 * g2) * S0 * S0 * S1 * S1 * S2 * S2
        + m2 * S0 * S0 * S1 * S1
        + m0 * S1 * S1 * S2 * S2
        + m1 * S0 * S0 * S2 * S2
        + (2.0 * g2 + 2.0 * g0 * g1) * C0 * C1 * S0 * S1 * S2 * S2
        + (2.0 * g0 + 2.0 * g1 * g2) * C1 * C2 * S1 * S2 * S0 * S0
        + (2.0 * g1 + 2.0 * g0 * g2) * C0 * C2 * S0 * S2 * S1 * S1
    )


def angle_jacobian(tp: TrianglePacking, geom: TriangleGeometry = None) -> np.ndarray:
    """(3, 3, N) matrices J[a, b] = d theta_a / d u_b in the coordinates
    u = ln tanh(r/2).

    Each unordered pair is evaluated once and mirrored, so J is symmetric
    by construction; diagonals come from the length-weighted row identity
    J[a, a] = -sum_b cosh(l_ab) J[a, b].
    """
    tp.require_star()
    if geom is None:
        geom = triangle_geometry(tp)
    off = pair_derivative(tp, PAIR_A, PAIR_B, geom)
    J = np.empty((3,) + off.shape)
    J[PAIR_A, PAIR_B] = J[PAIR_B, PAIR_A] = off
    cosh_l = geom.cosh_l
    J[ROWS, ROWS] = (-cosh_l.take(PREV, axis=0) * J[ROWS, NEXT]
                     - cosh_l.take(NEXT, axis=0) * J[ROWS, PREV])
    return J


@_quiet
def chain_rule_diagonal(tp, a, geom=None):
    """d theta_a / d u_a assembled directly from d theta/d l and d l/d r;
    a is a corner index or an index array.

    Independent of the row identity used by angle_jacobian, which makes the
    residual below a genuine cross-check.
    """
    if geom is None:
        geom = triangle_geometry(tp)
    _require(geom.a_norm >= A_NORM_FLOOR, DegenerateFaceError,
             "angle normalization below floor")
    S, C = tp.sinh_r, tp.cosh_r
    sa, ca = S.take(a, axis=0), C.take(a, axis=0)
    sinh_la = geom.sinh_l.take(a, axis=0)
    total = 0.0
    for b in ((a + 1) % 3, (a + 2) % 3):
        c = 3 - a - b
        d_theta_dl = -sinh_la * geom.cos_angles.take(b, axis=0) / geom.a_norm
        dl_dr = ((sa * C.take(b, axis=0) + tp.cos_w.take(c, axis=0) * ca * S.take(b, axis=0))
                 / geom.sinh_l.take(c, axis=0))
        total += d_theta_dl * dl_dr
    return sa * total


@_quiet
def glickenstein_residual(tp: TrianglePacking, geom=None, relative=False) -> np.ndarray:
    """(3, N) row residuals of the identity
    d theta_a/d u_a + sum_b cosh(l_ab) d theta_a/d u_b = 0,
    with the diagonal from the chain rule and off-diagonals from the closed
    form, so nothing is zero by construction. relative=True divides each
    by 1 plus the sum of the magnitudes of its three terms."""
    tp.require_star()
    if geom is None:
        geom = triangle_geometry(tp)
    cosh_l = geom.cosh_l
    t1 = cosh_l.take(PREV, axis=0) * pair_derivative(tp, ROWS, NEXT, geom)
    t2 = cosh_l.take(NEXT, axis=0) * pair_derivative(tp, ROWS, PREV, geom)
    diag = chain_rule_diagonal(tp, ROWS, geom)
    res = diag + t1 + t2
    if relative:
        return np.abs(res) / (1.0 + np.abs(diag) + np.abs(t1) + np.abs(t2))
    return res
