"""Per-triangle hyperbolic kernel.

Lengths, angles and angle derivatives for one face of a circle packing.
Everything is evaluated through shifted identities (cosh l - 1 and
1 +/- cos theta as products of nonnegative sinh factors) so values stay
accurate for radii from 1e-6 up to the 700 cap; the naive cosine-law
ratio loses all precision once angles shrink below ~1e-8.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFaceError, RadiusOverflowError, StarConditionError

RADIUS_CAP = 700.0
A_NORM_FLOOR = 1e-300


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


def chain_rule_diagonal(tp, a, geom=None):
    """d theta_a / d u_a assembled directly from d theta/d l and d l/d r.

    Independent of the row identity used by angle_jacobian, which makes the
    residual below a genuine cross-check.
    """
    if geom is None:
        geom = triangle_geometry(tp)
    g = tp.cos_weights()
    S = [math.sinh(x) for x in tp.radii]
    C = [math.cosh(x) for x in tp.radii]
    o1, o2 = (a + 1) % 3, (a + 2) % 3
    if not (geom.a_norm >= A_NORM_FLOOR):
        raise DegenerateFaceError(f"angle normalization {geom.a_norm!r} below floor")
    total = 0.0
    for b in (o1, o2):
        c = 3 - a - b
        d_theta_dl = -geom.sinh_l[a] * geom.cos_angles[b] / geom.a_norm
        dl_dr = (S[a] * C[b] + g[c] * C[a] * S[b]) / geom.sinh_l[c]
        total += d_theta_dl * dl_dr
    return S[a] * total


def glickenstein_residual(tp: TrianglePacking) -> np.ndarray:
    """Row residuals of the identity
    d theta_a/d u_a + sum_b cosh(l_ab) d theta_a/d u_b = 0,
    with the diagonal from the chain rule and off-diagonals from the closed
    form, so nothing is zero by construction."""
    if not tp.satisfies_star():
        raise StarConditionError(f"corner condition fails for weights {tp.weights!r}")
    geom = triangle_geometry(tp)
    res = np.zeros(3)
    for a in range(3):
        o1, o2 = (a + 1) % 3, (a + 2) % 3
        t1 = geom.cosh_l[3 - a - o1] * pair_derivative(tp, a, o1, geom)
        t2 = geom.cosh_l[3 - a - o2] * pair_derivative(tp, a, o2, geom)
        res[a] = chain_rule_diagonal(tp, a, geom) + t1 + t2
    return res
