"""The reference curvature agrees with cpflow where both are valid."""

import math

import numpy as np
import pytest

from cpflow import laplacian
from cpflow import mesh as meshmod

import meshgen
import reference


@pytest.mark.parametrize("name", ["tetra", "genus2_min"])
@pytest.mark.parametrize("seed", range(5))
def test_curvature_matches_program(name, seed):
    rng = np.random.default_rng(seed)
    m = meshmod.builtin_mesh(name)
    m = m.with_weights(rng.uniform(0.0, 0.5 * math.pi, m.edge_count))
    r = np.exp(rng.uniform(math.log(0.1), math.log(5.0), m.vertex_count))
    ma = reference.MeshArrays.from_mesh(m)
    assert np.max(np.abs(reference.curvature(ma, r) - laplacian.curvature(m, r))) < 1e-12


def test_radius_coordinates_invert():
    r = np.exp(np.linspace(math.log(0.1), math.log(5.0), 20))
    assert np.max(np.abs(reference.r_of_u(reference.u_of_r(r)) - r) / r) < 1e-12


def test_directional_derivative_matches_jacobian():
    rng = np.random.default_rng(3)
    m = meshgen.genus2(1)
    m = m.with_weights(rng.uniform(0.0, 0.5 * math.pi, m.edge_count))
    r = np.exp(rng.uniform(math.log(0.1), math.log(5.0), m.vertex_count))
    ma = reference.MeshArrays.from_mesh(m)
    v = rng.standard_normal(m.vertex_count)
    L = laplacian.assemble(m, r).L
    fd = reference.directional_derivative(ma, r, v)
    assert np.max(np.abs(L @ v - fd)) < 1e-6 * np.max(np.abs(fd))
    assert np.max(np.abs(reference.jacobian(ma, r) - L)) < 1e-6 * np.max(np.abs(L))


@pytest.mark.parametrize("level", [0, 1])
def test_flat_radii_zero_the_program_curvature(level):
    rng = np.random.default_rng(5)
    m = meshgen.genus2(level)
    m = m.with_weights(rng.uniform(0.0, 0.5 * math.pi, m.edge_count))
    ma = reference.MeshArrays.from_mesh(m)
    r0 = np.exp(rng.uniform(math.log(0.1), math.log(5.0), m.vertex_count))
    r_flat = reference.flat_radii(ma, r0)
    assert np.max(np.abs(laplacian.curvature(m, r_flat))) < 1e-12
    # unique: another start lands on the same radii
    r_other = reference.flat_radii(ma, np.full(m.vertex_count, 1.0))
    assert np.max(np.abs(r_other - r_flat) / r_flat) < 1e-10


def test_flat_radii_match_the_known_genus2_packing():
    # zero weights on genus2_min: center and rim radii of the flat packing,
    # as pinned in the program's own test oracles
    ma = reference.MeshArrays.from_mesh(meshmod.builtin_mesh("genus2_min"))
    r = reference.flat_radii(ma, np.array([1.0, 1.0]))
    assert r == pytest.approx([0.9198815281970776, 1.5285709194809982], rel=1e-12)
