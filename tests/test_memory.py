"""Traced-allocation guards on the refined-mesh memory peak.

tracemalloc sees every numpy buffer, so the traced peak of one call on a
fixed mesh repeats exactly; the guards divide it by the triangle count.
Assembly through nine int64 COO triplets per triangle, summed and then
converted, peaks near 475 bytes per triangle in both calls below.
"""

import tracemalloc

import pytest

from steklov_lab import fem, spectra
from steklov_lab import geometry as geo
from steklov_lab import meshgen as mg


@pytest.fixture(scope="module")
def refined():
    geom = geo.build_perforated_geometry(geo.unit_square(), 4, 0.5)
    return mg.refine(mg.mesh_perforated(geom, mg.CellMeshTemplate(6, 2.0,
                                                                  4, 16)))


def traced_peak(fn, mesh) -> int:
    fn(mesh)                         # imports and first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(mesh)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fn,bound", [(fem.assemble_stiffness, 350),
                                      (spectra.condense, 400)])
def test_traced_peak_per_triangle(refined, fn, bound):
    assert traced_peak(fn, refined) <= bound * len(refined.triangles)
