"""Traced-allocation guards on the refined-mesh memory peak.

tracemalloc sees every numpy buffer, so the traced peak of one call on a
fixed mesh repeats exactly; the guards divide it by the triangle count.
The fixture's stiffness and mass CSRs take about 45 bytes per triangle.
Assembly sums int32 COO triplets once and mirrors the sum by index
arithmetic, so it peaks near 131 bytes per triangle, about 3x its result;
condense, whose result holds the free-dof K + B and S, near 156.  A
condensed bundle's first source solve adds its factors: condense plus that
solve peaks near 452, and the band factor of all cell interiors, a numpy
array, takes about 234 of it (SuperLU's factor of S is not traced).  The
interface Schur complement is bounded too: its peak is mostly the copy of
SuperLU's U factor that scipy builds on reading it.
"""

import tracemalloc

import numpy as np
import pytest

from steklov_lab import eigen, fem, spectra
from steklov_lab import geometry as geo
from steklov_lab import meshgen as mg


@pytest.fixture(scope="module")
def refined():
    geom = geo.build_perforated_geometry(geo.unit_square(), 4, 0.5)
    return mg.refine(mg.mesh_perforated(geom, mg.CellMeshTemplate(6, 2.0,
                                                                  4, 16)))


def traced_peak(fn) -> int:
    fn()                             # imports and first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# each case takes the fixture mesh and returns the call to trace


def assemble_stiffness(mesh):
    return lambda: fem.assemble_stiffness(mesh)


def assemble_mass(mesh):
    return lambda: fem.assemble_mass(mesh)


def edge_mass(mesh):
    edges = mg._edge_table(mesh.triangles)[0]       # every mesh edge once
    return lambda: fem.edge_mass(mesh, edges)


def condense(mesh):
    return lambda: spectra.condense(mesh)


def condense_and_solve(mesh):
    f = np.ones(mesh.num_nodes)
    return lambda: spectra.condense(mesh).solve(f)


def schur_complement(mesh):
    # K + M is SPD on every node; keep the hole boundary nodes
    A = fem.assemble_stiffness(mesh) + fem.assemble_mass(mesh)
    keep = np.unique(mesh.boundary_edges[mesh.edge_tags != mg.OUTER])
    return lambda: eigen.schur_complement(A, keep)


@pytest.mark.parametrize("case,bound", [
    (assemble_stiffness, 180), (assemble_mass, 180), (edge_mass, 180),
    (condense, 240), (condense_and_solve, 480), (schur_complement, 850)])
def test_traced_peak_per_triangle(refined, case, bound):
    assert traced_peak(case(refined)) <= bound * len(refined.triangles)
