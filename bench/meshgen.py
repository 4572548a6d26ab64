"""Genus-2 meshes of any size: 1-to-4 subdivision of `genus2_min` by edge id.

The generator uses only the public mesh types (`WeightedTriangulation`,
`Edge`, `Face`), so loops and multi-edges survive exactly as the program
represents them. Each subdivision keeps the Euler characteristic and
multiplies the face count by four: level k has 8 * 4**k faces.

Gluing convention. Faces are consistently oriented, so the two faces of an
edge traverse it in opposite directions (face corner t+1 -> corner t+2 for
edge t). An edge a-b with a != b splits into the half at a (id 2e) and the
half at b (id 2e+1). A loop has the same vertex at both ends, so its halves
are told apart by traversal: in the first face of the loop half 2e sits at
the start of the traversal, in the second face at its end. That is the
orientation-reversing gluing of an orientable surface, so both faces see
the two halves glued the same way.
"""

from cpflow import mesh as meshmod

BASE = "genus2_min"


def _half_ends(m):
    """Map (face id, corner t, edge slot s) -> half id for every corner.

    half_at[(f, c, e)] is the half of edge e adjacent to corner c of face f.
    """
    first_face = {}
    half_at = {}
    for fid, f in enumerate(m.faces):
        for t in range(3):
            eid = f.edges[t]
            e = m.edges[eid]
            c_start, c_end = (t + 1) % 3, (t + 2) % 3
            if e.a != e.b:
                for c in (c_start, c_end):
                    half_at[(fid, c, eid)] = 2 * eid + (0 if f.corners[c] == e.a else 1)
                continue
            if first_face.setdefault(eid, (fid, t)) == (fid, t):
                half_at[(fid, c_start, eid)] = 2 * eid
                half_at[(fid, c_end, eid)] = 2 * eid + 1
            else:
                half_at[(fid, c_start, eid)] = 2 * eid + 1
                half_at[(fid, c_end, eid)] = 2 * eid
    return half_at


def subdivide(m, phi=0.0):
    """One 1-to-4 subdivision; every new edge gets weight phi.

    Vertex n + e is the midpoint of edge e. Edge 2e and 2e+1 are the halves
    of edge e, edge 2E + 3f + t joins the midpoints of the two edges of face
    f adjacent to corner t. Face 4f + t is the corner triangle at corner t,
    face 4f + 3 the middle triangle.
    """
    n, ne = m.vertex_count, m.edge_count
    half_at = _half_ends(m)
    edges = []
    for eid, e in enumerate(m.edges):
        mid = n + eid
        edges.append(meshmod.Edge(e.a, mid, phi))
        edges.append(meshmod.Edge(mid, e.b, phi))
    for f in m.faces:
        for t in range(3):
            edges.append(meshmod.Edge(n + f.edges[(t + 1) % 3], n + f.edges[(t + 2) % 3], phi))
    faces = []
    for fid, f in enumerate(m.faces):
        mids = [n + eid for eid in f.edges]
        inner = [2 * ne + 3 * fid + t for t in range(3)]
        for t in range(3):
            t1, t2 = (t + 1) % 3, (t + 2) % 3
            # corners (v_t, m_t2, m_t1): opposite v_t the inner edge, opposite
            # m_t2 the half of e_t1 at v_t, opposite m_t1 the half of e_t2
            faces.append(meshmod.Face(
                (f.corners[t], mids[t2], mids[t1]),
                (inner[t], half_at[(fid, t, f.edges[t1])], half_at[(fid, t, f.edges[t2])]),
            ))
        faces.append(meshmod.Face(tuple(mids), tuple(inner)))
    return meshmod.WeightedTriangulation(n + ne, edges, faces)


def genus2(level, phi=0.0):
    """`genus2_min` subdivided `level` times: 8 * 4**level faces, chi = -2."""
    m = meshmod.builtin_mesh(BASE, phi)
    for _ in range(level):
        m = subdivide(m, phi)
    return m


def vertex_links(m):
    """Number of cycles in the link of every vertex.

    The link of v has one node per edge end at v (a loop has two) and one
    arc per corner at v, joining the ends of the corner's two edges. A
    closed surface has a single cycle at every vertex.
    """
    half_at = _half_ends(m)
    adj = {}
    for fid, f in enumerate(m.faces):
        for c in range(3):
            v = f.corners[c]
            ends = [(v, half_at[(fid, c, f.edges[s])]) for s in ((c + 1) % 3, (c + 2) % 3)]
            for a, b in (ends, ends[::-1]):
                adj.setdefault(a, []).append(b)
    cycles = [0] * m.vertex_count
    seen = set()
    for node, nbrs in adj.items():
        if len(nbrs) != 2:
            return None
        if node in seen:
            continue
        cycles[node[0]] += 1
        stack = [node]
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(adj[x])
    return cycles
