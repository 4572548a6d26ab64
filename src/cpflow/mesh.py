"""Weighted triangulations of closed surfaces.

Faces reference edges by id rather than by vertex pair, so non-simplicial
triangulations are first class: a face may repeat a vertex and an edge may be
a loop (both endpoints equal), which the minimal genus-2 mesh requires.
"""

import json
import math
from dataclasses import dataclass

from .errors import MeshFormatError, MeshValidationError
from . import jsonio


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


class WeightedTriangulation:
    """Immutable combinatorics plus per-edge intersection weights."""

    def __init__(self, vertex_count, edges, faces):
        self.vertex_count = int(vertex_count)
        self.edges = tuple(edges)
        self.faces = tuple(faces)
        self._validate()
        self._build_adjacency()

    # -- validation -------------------------------------------------------

    def _validate(self):
        n, ne = self.vertex_count, len(self.edges)
        if n <= 0:
            raise MeshValidationError("vertex count must be positive")
        if ne == 0 or not self.faces:
            raise MeshValidationError("mesh needs at least one edge and one face")
        for eid, e in enumerate(self.edges):
            if not (0 <= e.a < n and 0 <= e.b < n):
                raise MeshValidationError(f"edge {eid} endpoint out of range")
            if not (0.0 <= e.phi < math.pi):
                raise MeshValidationError(
                    f"edge {eid} weight {e.phi!r} outside [0, pi)"
                )
        for fid, f in enumerate(self.faces):
            if len(f.corners) != 3 or len(f.edges) != 3:
                raise MeshValidationError(f"face {fid} is not a triangle")
            for v in f.corners:
                if not (0 <= v < n):
                    raise MeshValidationError(f"face {fid} corner out of range")
            for t in range(3):
                eid = f.edges[t]
                if not (0 <= eid < ne):
                    raise MeshValidationError(f"face {fid} edge id out of range")
                e = self.edges[eid]
                want = sorted((f.corners[(t + 1) % 3], f.corners[(t + 2) % 3]))
                if sorted((e.a, e.b)) != want:
                    raise MeshValidationError(
                        f"face {fid} corner {t}: opposite edge {eid} endpoints "
                        f"{sorted((e.a, e.b))} do not match corners {want}"
                    )
        count = [0] * ne
        for f in self.faces:
            for eid in f.edges:
                count[eid] += 1
        for eid, c in enumerate(count):
            if c != 2:
                raise MeshValidationError(
                    f"edge {eid} not in exactly two faces (found {c})"
                )
        if n > 3 * len(self.faces):     # checked before n is allocated
            raise MeshValidationError(f"vertex count {n} above 3 per face: a vertex is in no face")
        seen = [False] * n
        for f in self.faces:
            for v in f.corners:
                seen[v] = True
        for v, s in enumerate(seen):
            if not s:
                raise MeshValidationError(f"vertex {v} appears in no face")

    def _build_adjacency(self):
        n = self.vertex_count
        self._edge_faces = [[] for _ in self.edges]
        for fid, f in enumerate(self.faces):
            for eid in f.edges:
                self._edge_faces[eid].append(fid)
        deg = [0] * n
        corners = [0] * n
        incident = [[] for _ in range(n)]
        for eid, e in enumerate(self.edges):
            deg[e.a] += 1
            deg[e.b] += 1
            incident[e.a].append(eid)
            if e.b != e.a:
                incident[e.b].append(eid)
            else:
                incident[e.a].append(eid)   # loop: incident twice
        for f in self.faces:
            for v in f.corners:
                corners[v] += 1
        self._degrees = tuple(deg)
        self._corner_counts = tuple(corners)
        self._incident_edges = tuple(tuple(x) for x in incident)

    # -- queries ----------------------------------------------------------

    @property
    def edge_count(self):
        return len(self.edges)

    @property
    def face_count(self):
        return len(self.faces)

    def euler_characteristic(self):
        return self.vertex_count - len(self.edges) + len(self.faces)

    def degrees(self):
        """Endpoint-incidence degree per vertex; a loop edge counts twice."""
        return self._degrees

    def max_degree(self):
        return max(self._degrees)

    def corner_counts(self):
        """Number of face corners at each vertex (= degree on a closed surface)."""
        return self._corner_counts

    def faces_of_edge(self, eid):
        return tuple(self._edge_faces[eid])

    def incident_edges(self, v):
        return self._incident_edges[v]

    def face_weights(self, fid):
        """Weights ordered opposite each corner of the face."""
        f = self.faces[fid]
        return tuple(self.edges[eid].phi for eid in f.edges)

    def with_weights(self, phis):
        """Copy of the mesh with per-edge weights replaced."""
        if len(phis) != len(self.edges):
            raise MeshValidationError("weight vector length != edge count")
        edges = [Edge(e.a, e.b, float(p)) for e, p in zip(self.edges, phis)]
        return WeightedTriangulation(self.vertex_count, edges, self.faces)

    def with_uniform_weight(self, phi):
        return self.with_weights([phi] * len(self.edges))


# -- star condition ---------------------------------------------------------

def corner_gammas(weights):
    """gamma per corner from the three opposite-ordered face weights."""
    g = [math.cos(w) for w in weights]
    return tuple(g[t] + g[(t + 1) % 3] * g[(t + 2) % 3] for t in range(3))


def check_star_condition(mesh: WeightedTriangulation) -> StarReport:
    gammas = []
    violations = []
    for fid in range(mesh.face_count):
        gs = corner_gammas(mesh.face_weights(fid))
        for t, g in enumerate(gs):
            gammas.append((fid, t, g))
            if g < 0.0:
                violations.append((fid, t, g))
    return StarReport(tuple(gammas), not violations, tuple(violations))


# -- adjacency report ---------------------------------------------------------

def vertex_adjacency(mesh: WeightedTriangulation):
    """Per-vertex incidence records and endpoint-incidence degrees.

    Returns (records, degrees, max_degree) where records[v] is a list of
    (edge id, faces of that edge, neighbor vertex id), one entry per
    incidence, so a loop edge at v contributes two entries.
    """
    records = []
    for v in range(mesh.vertex_count):
        entries = []
        for eid in mesh.incident_edges(v):
            e = mesh.edges[eid]
            neighbor = e.b if e.a == v else e.a
            entries.append((eid, mesh.faces_of_edge(eid), neighbor))
        records.append(entries)
    return records, mesh.degrees(), mesh.max_degree()


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
    if not isinstance(n, int):
        raise MeshFormatError("'vertices' must be an integer")
    rows = doc["edges"]
    if not isinstance(rows, list):
        raise MeshFormatError("'edges' must be a list")
    by_id = {}
    for row in rows:
        if not (isinstance(row, list) and len(row) == 4):
            raise MeshFormatError(f"edge row {row!r} must be [id, a, b, phi]")
        eid, a, b, phi = row
        if not (all(isinstance(x, int) for x in (eid, a, b)) and type(phi) in (int, float)):
            raise MeshFormatError(f"edge row {row!r} needs integer ids and a numeric weight")
        if eid in by_id:
            raise MeshFormatError(f"duplicate edge id {eid}")
        by_id[eid] = Edge(a, b, float(phi))
    if sorted(by_id) != list(range(len(by_id))):
        raise MeshFormatError("edge ids must be dense integers from 0")
    edges = [by_id[i] for i in range(len(by_id))]
    faces = []
    frows = doc["faces"]
    if not isinstance(frows, list):
        raise MeshFormatError("'faces' must be a list")
    for row in frows:
        if not (isinstance(row, list) and len(row) == 6):
            raise MeshFormatError(
                f"face row {row!r} must be [v0, v1, v2, e0, e1, e2]"
            )
        if not all(isinstance(x, int) for x in row):
            raise MeshFormatError(f"face row {row!r} has non-integer ids")
        faces.append(Face(tuple(row[:3]), tuple(row[3:])))
    return WeightedTriangulation(n, edges, faces)


def save_mesh(mesh: WeightedTriangulation) -> str:
    """Canonical text; numeric values round-trip bit-exactly through load."""
    lines = ['{"vertices": %d,' % mesh.vertex_count, ' "edges": [']
    erows = []
    for eid, e in enumerate(mesh.edges):
        erows.append(
            "  [%d, %d, %d, %s]" % (eid, e.a, e.b, jsonio.format_float(e.phi))
        )
    lines.append(",\n".join(erows))
    lines.append(" ],")
    lines.append(' "faces": [')
    frows = []
    for f in mesh.faces:
        frows.append("  [%d, %d, %d, %d, %d, %d]" % (f.corners + f.edges))
    lines.append(",\n".join(frows))
    lines.append(" ]}")
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
