"""Weighted triangulations of closed surfaces.

Faces reference edges by id rather than by vertex pair, so non-simplicial
triangulations are first class: a face may repeat a vertex and an edge may be
a loop (both endpoints equal), which the minimal genus-2 mesh requires.

A mesh also holds the arrays `laplacian` derives from it, each built on
first read: those of the combinatorics once, shared by every
`with_weights` copy, those of the weights once per mesh. `copies(m)`
builds the disjoint union of m copies on which `verify` evaluates many
metrics; the mesh keeps no union. The corner values
gamma are `packing.gammas`, from `hypgeom.corner_values`: the first
violation and `check_star_condition`'s report both read them.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jsonio
from .errors import MeshFormatError, MeshValidationError, check_number
from .hypgeom import NEXT, PREV, TrianglePacking, half_angles


@dataclass(frozen=True)
class Edge:
    a: int
    b: int
    phi: float


@dataclass(frozen=True)
class Face:
    corners: tuple    # (v0, v1, v2) vertex ids
    edges: tuple      # (e0, e1, e2) edge ids; edge t is opposite corner t


@dataclass(frozen=True)
class StarReport:
    """Corner values gamma = cos(phi_opp) + cos(phi_adj1) cos(phi_adj2)."""

    gammas: tuple                 # ((face, corner, gamma), ...) for every corner
    all_nonnegative: bool
    violations: tuple             # subset of gammas with gamma < 0

    def to_dict(self):
        return {
            "all_nonnegative": self.all_nonnegative,
            "gammas": [[f, c, g] for f, c, g in self.gammas],
            "violations": [[f, c, g] for f, c, g in self.violations],
        }


def _combinatorial(build):
    """A property of the combinatorics alone, built on first read into the
    dict that a mesh shares with its `with_weights` copies."""
    def get(mesh):
        if build.__name__ not in mesh._shared:
            mesh._shared[build.__name__] = build(mesh)
        return mesh._shared[build.__name__]
    return property(get, doc=build.__doc__)


class WeightedTriangulation:
    """Immutable combinatorics plus per-edge intersection weights, held as
    four read-only arrays: `ends` (E, 2) and `phi` (E,) per edge, `corners`
    (F, 3) vertex ids and `edge_ids` (F, 3) per face, edge t opposite
    corner t. `edges` and `faces` are Edge and Face tuples built when read.
    Per-corner derived arrays are (3, F): row t holds corner t of every face.
    """

    def __init__(self, vertex_count, edges, faces):
        """From Edge and Face objects."""
        edges, faces = tuple(edges), tuple(faces)
        not_triangle = np.array([not len(f.corners) == len(f.edges) == 3 for f in faces])
        if not_triangle.any():      # zero rows stand in for a face that is not a triangle
            faces = [Face((0, 0, 0), (0, 0, 0)) if bad else f for f, bad in zip(faces, not_triangle)]
        self._set(vertex_count, _ids([(e.a, e.b) for e in edges], 2),
                  np.array([e.phi for e in edges], dtype=float),
                  _ids([f.corners for f in faces], 3), _ids([f.edges for f in faces], 3))
        self._validate(not_triangle)

    @classmethod
    def from_arrays(cls, vertex_count, ends, phi, corners, edge_ids):
        """From the four arrays, or nested lists of their rows; copies them."""
        mesh = cls.__new__(cls)._set(vertex_count, _ids(ends, 2), np.array(phi, dtype=float),
                                     _ids(corners, 3), _ids(edge_ids, 3))
        mesh._validate()
        return mesh

    def _set(self, vertex_count, ends, phi, corners, edge_ids, shared=None):
        for a in (ends, phi, corners, edge_ids):
            a.setflags(write=False)
        self.vertex_count = int(vertex_count)
        self.ends, self.phi, self.corners, self.edge_ids = ends, phi, corners, edge_ids
        self._shared = {} if shared is None else shared
        return self

    # -- validation -------------------------------------------------------

    def _validate(self, not_triangle=None):
        """Raise MeshValidationError naming the first violation, in the
        order of a loop over the edges, then face by face and corner by
        corner, then the edge and vertex counts."""
        n, ne, nf = self.vertex_count, self.edge_count, self.face_count
        if n <= 0:
            raise MeshValidationError("vertex count must be positive")
        if ne == 0 or nf == 0:
            raise MeshValidationError("mesh needs at least one edge and one face")
        ends, phi, corners, edge_ids = self.ends, self.phi, self.corners, self.edge_ids
        bad = _first(np.column_stack((((ends < 0) | (ends >= n)).any(axis=1), _bad_weights(phi))))
        if bad is not None:
            eid, col = bad
            if col == 1:
                raise _weight_error(phi, eid)
            raise MeshValidationError(f"edge {eid} endpoint out of range")
        id_bad = (edge_ids < 0) | (edge_ids >= ne)
        opposite = np.sort(ends[np.where(id_bad, 0, edge_ids)], axis=2)
        want = np.sort(np.stack((corners[:, NEXT], corners[:, PREV]), axis=2), axis=2)
        mismatch = ~id_bad & (opposite != want).any(axis=2)
        # per face: not a triangle, a corner out of range, then per corner t
        # its edge id out of range and its edge's ends not the other corners
        checks = np.column_stack((
            np.zeros(nf, dtype=bool) if not_triangle is None else not_triangle,
            ((corners < 0) | (corners >= n)).any(axis=1),
            np.stack((id_bad, mismatch), axis=2).reshape(nf, 6)))
        bad = _first(checks)
        if bad is not None:
            fid, col = bad
            t = (col - 2) // 2
            if col == 0:
                what = "is not a triangle"
            elif col == 1:
                what = "corner out of range"
            elif col % 2 == 0:
                what = "edge id out of range"
            else:
                what = (f"corner {t}: opposite edge {edge_ids[fid, t]} endpoints "
                        f"{opposite[fid, t].tolist()} do not match corners {want[fid, t].tolist()}")
            raise MeshValidationError(f"face {fid} {what}")
        count = np.bincount(edge_ids.ravel(), minlength=ne)
        if np.any(count != 2):
            eid = int(np.argmax(count != 2))
            raise MeshValidationError(f"edge {eid} not in exactly two faces (found {count[eid]})")
        if n > 3 * nf:      # checked before anything is allocated per vertex
            raise MeshValidationError(f"vertex count {n} above 3 per face: a vertex is in no face")
        seen = np.bincount(corners.ravel(), minlength=n)
        if np.any(seen == 0):
            raise MeshValidationError(f"vertex {int(np.argmin(seen))} appears in no face")

    # -- queries ----------------------------------------------------------

    @cached_property
    def edges(self):
        return tuple(Edge(a, b, p) for (a, b), p in zip(self.ends.tolist(), self.phi.tolist()))

    @cached_property
    def faces(self):
        return tuple(Face(tuple(c), tuple(e))
                     for c, e in zip(self.corners.tolist(), self.edge_ids.tolist()))

    @property
    def edge_count(self):
        return len(self.ends)

    @property
    def face_count(self):
        return len(self.corners)

    def euler_characteristic(self):
        return self.vertex_count - self.edge_count + self.face_count

    def degrees(self):
        """Endpoint-incidence degree per vertex; a loop edge counts twice."""
        return tuple(np.bincount(self.ends.ravel(), minlength=self.vertex_count).tolist())

    def max_degree(self):
        return max(self.degrees())

    def corner_counts(self):
        """Number of face corners at each vertex (= degree on a closed surface)."""
        return tuple(np.bincount(self.corners.ravel(), minlength=self.vertex_count).tolist())

    def face_weights(self, fid):
        """Weights ordered opposite each corner of the face."""
        return tuple(self.phi.take(self.edge_ids[fid]).tolist())

    def with_weights(self, phis):
        """Copy of the mesh with per-edge weights replaced; it shares the
        combinatorial arrays, and only the new weights are checked."""
        if len(phis) != self.edge_count:
            raise MeshValidationError("weight vector length != edge count")
        phi = np.array(phis, dtype=float)
        bad = _bad_weights(phi)
        if bad.any():
            raise _weight_error(phi, int(np.argmax(bad)))
        return WeightedTriangulation.__new__(WeightedTriangulation)._set(
            self.vertex_count, self.ends, phi, self.corners, self.edge_ids, self._shared)

    def with_uniform_weight(self, phi):
        return self.with_weights([phi] * self.edge_count)

    def copies(self, m):
        """A new disjoint union of m copies of the mesh: copy c holds vertex
        v as c n + v, and its edges and faces likewise. Copies of a valid
        mesh are valid, so the union is not validated again."""
        check_number("copy count", m, 1)
        n, ne = self.vertex_count, self.edge_count
        c = np.arange(m)[:, None, None]
        return WeightedTriangulation.__new__(WeightedTriangulation)._set(
            n * m, (self.ends + c * n).reshape(-1, 2), np.tile(self.phi, m),
            (self.corners + c * n).reshape(-1, 3), (self.edge_ids + c * ne).reshape(-1, 3))

    # -- arrays of the combinatorics, shared with reweighted copies ---------

    @_combinatorial
    def corner_rows(self):      # (3, F) vertex ids
        return np.ascontiguousarray(self.corners.T)

    @_combinatorial
    def edge_rows(self):        # (3, F) edge ids, edge t opposite corner t
        return np.ascontiguousarray(self.edge_ids.T)

    @_combinatorial
    def nonloop(self):          # ids of the edges with two distinct ends
        return np.flatnonzero(self.ends[:, 0] != self.ends[:, 1])

    @_combinatorial
    def links(self):            # (E', 2) endpoints of those edges
        return self.ends[self.nonloop]

    @_combinatorial
    def loop_edges(self):
        return tuple(np.flatnonzero(self.ends[:, 0] == self.ends[:, 1]).tolist())

    @_combinatorial
    def apply_index(self):
        """Scatter ids of the p-Laplacian: every vertex (the -A f term),
        then the ends of each link, the order of an edge loop."""
        return np.concatenate((np.arange(self.vertex_count), self.links.ravel()))

    @_combinatorial
    def a_direct(self):
        """(ids, terms) of the direct route for A, face by face and corner by
        corner: the vertex, and rows t + 2, then t + 1, of a flat (3, F) array."""
        F = self.face_count
        rows = np.stack((PREV, NEXT), axis=1)[None, :, :] * F + np.arange(F)[:, None, None]
        return np.repeat(self.corners.ravel(), 2), rows.ravel()

    @_combinatorial
    def entry_pattern(self):
        """(pair_of, rows, cols): the vertex pair (i, j), i < j, of each link,
        and the entries of L, each pair both ways, then the diagonal."""
        links, n = self.links, self.vertex_count
        pairs, pair_of = np.unique(links.min(axis=1) * n + links.max(axis=1), return_inverse=True)
        i, j = np.divmod(pairs, n)
        diag = np.arange(n)
        return pair_of, np.concatenate((i, j, diag)), np.concatenate((j, i, diag))

    # -- arrays of the weights, once per mesh -------------------------------

    @cached_property
    def half_phi(self):         # cos and sin of half of each edge weight
        return half_angles(self.phi)

    @cached_property
    def packing(self):          # the (3, F) face weights; `with_radii` sets radii
        return TrianglePacking(np.ones(self.corner_rows.shape), self.phi.take(self.edge_rows))

    @cached_property
    def first_star_violation(self):
        """(face, corner) of the first violation `check_star_condition`
        lists, or None."""
        bad = np.argwhere(self.packing.gammas.T < 0.0)
        return tuple(bad[0].tolist()) if len(bad) else None


def _ids(rows, width):
    """int64 (len(rows), width) array of integer rows. An id beyond int64
    becomes -1, which every range check rejects as it rejects the id."""
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:
        a = np.array([[x if -2**63 <= x < 2**63 else -1 for x in row] for row in rows],
                     dtype=np.int64)
    return a.reshape(len(rows), width)


def _bad_weights(phi):
    return ~((phi >= 0.0) & (phi < math.pi))     # true at nan


def _weight_error(phi, eid):
    return MeshValidationError(f"edge {eid} weight {float(phi[eid])!r} outside [0, pi)")


def _first(bad):
    """(row, column) of the first true entry of a 2-D mask in row-major
    order, or None."""
    k = int(np.argmax(bad))
    return divmod(k, bad.shape[1]) if bad.flat[k] else None


# -- star condition ---------------------------------------------------------

def check_star_condition(mesh: WeightedTriangulation) -> StarReport:
    """Every corner value, face by face and corner by corner, and the negative ones."""
    g = mesh.packing.gammas.T.ravel()
    gammas = tuple(zip((np.arange(g.size) // 3).tolist(), [0, 1, 2] * mesh.face_count, g.tolist()))
    violations = tuple([gammas[k] for k in np.flatnonzero(g < 0.0).tolist()])
    return StarReport(gammas, not violations, violations)


# -- file format --------------------------------------------------------------

def load_mesh(text) -> WeightedTriangulation:
    """Parse the JSON mesh format, as text or UTF-8 bytes, and validate every invariant."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:     # overlong integers and deep nesting too
        raise MeshFormatError(f"mesh file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MeshFormatError("mesh file must be a JSON object")
    for key in ("vertices", "edges", "faces"):
        if key not in doc:
            raise MeshFormatError(f"mesh file missing '{key}'")
    n = doc["vertices"]
    if type(n) is not int:      # JSON true and false are not ids
        raise MeshFormatError("'vertices' must be an integer")
    rows = doc["edges"]
    if not isinstance(rows, list):
        raise MeshFormatError("'edges' must be a list")
    by_id = {}
    for row in rows:
        if not (isinstance(row, list) and len(row) == 4):
            raise MeshFormatError(f"edge row {row!r} must be [id, a, b, phi]")
        eid, a, b, phi = row
        if not (all(type(x) is int for x in (eid, a, b)) and type(phi) in (int, float)):
            raise MeshFormatError(f"edge row {row!r} needs integer ids and a numeric weight")
        if eid in by_id:
            raise MeshFormatError(f"duplicate edge id {eid}")
        by_id[eid] = row
    if sorted(by_id) != list(range(len(by_id))):
        raise MeshFormatError("edge ids must be dense integers from 0")
    erows = [by_id[i] for i in range(len(by_id))]
    frows = doc["faces"]
    if not isinstance(frows, list):
        raise MeshFormatError("'faces' must be a list")
    for row in frows:
        if not (isinstance(row, list) and len(row) == 6):
            raise MeshFormatError(
                f"face row {row!r} must be [v0, v1, v2, e0, e1, e2]"
            )
        if not all(type(x) is int for x in row):
            raise MeshFormatError(f"face row {row!r} has non-integer ids")
    return WeightedTriangulation.from_arrays(
        n, [row[1:3] for row in erows], [_float(row[3]) for row in erows],
        [row[:3] for row in frows], [row[3:] for row in frows])


def _float(x):
    try:
        return float(x)
    except OverflowError:       # an integer beyond double range: out of range, like inf
        return math.inf if x > 0 else -math.inf


def save_mesh(mesh: WeightedTriangulation) -> str:
    """Canonical text; numeric values round-trip bit-exactly through load."""
    erows = ["  [%d, %d, %d, %s]" % (eid, a, b, jsonio.format_float(p))
             for eid, ((a, b), p) in enumerate(zip(mesh.ends.tolist(), mesh.phi.tolist()))]
    frows = ["  [%d, %d, %d, %d, %d, %d]" % tuple(row)
             for row in np.hstack((mesh.corners, mesh.edge_ids)).tolist()]
    lines = ['{"vertices": %d,' % mesh.vertex_count, ' "edges": [', ",\n".join(erows),
             " ],", ' "faces": [', ",\n".join(frows), " ]}"]
    return "\n".join(lines) + "\n"


def simplicial_from_faces(vertex_count, face_corners, weight=0.0):
    """Build a simplicial mesh from corner triples; edges are inferred.

    Every unordered vertex pair used by a face becomes one edge, so the
    result has no multi-edges or loops.
    """
    pairs = []
    index = {}
    for tri in face_corners:
        for t in range(3):
            p = tuple(sorted((tri[(t + 1) % 3], tri[(t + 2) % 3])))
            if p not in index:
                index[p] = len(pairs)
                pairs.append(p)
    edges = [Edge(a, b, weight) for a, b in pairs]
    faces = []
    for tri in face_corners:
        eids = tuple(
            index[tuple(sorted((tri[(t + 1) % 3], tri[(t + 2) % 3])))]
            for t in range(3)
        )
        faces.append(Face(tuple(tri), eids))
    return WeightedTriangulation(vertex_count, edges, faces)


# -- built-in meshes -----------------------------------------------------------

def builtin_mesh(name: str, weight: float = 0.0) -> WeightedTriangulation:
    """Construct a named example mesh with a uniform weight."""
    if not (0.0 <= weight < math.pi):
        raise MeshValidationError(f"uniform weight {weight!r} outside [0, pi)")
    if name == "tetra":
        corner_sets = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        return simplicial_from_faces(4, corner_sets, weight)
    if name == "genus2_min":
        # Octagon with a center vertex, all rim corners identified to one
        # vertex: 8 spokes (center-rim), 4 rim loops, 8 faces, chi = -2.
        center, rim = 0, 1
        edges = [Edge(center, rim, weight) for _ in range(8)]
        edges += [Edge(rim, rim, weight) for _ in range(4)]
        faces = []
        for t in range(8):
            rim_edge = 8 + (t % 4)
            spoke_a = t            # between corners 0 and 1
            spoke_b = (t + 1) % 8  # between corners 0 and 2
            faces.append(Face((center, rim, rim), (rim_edge, spoke_b, spoke_a)))
        return WeightedTriangulation(2, edges, faces)
    raise MeshValidationError(f"unknown built-in mesh {name!r}")


BUILTIN_NAMES = ("tetra", "genus2_min")
