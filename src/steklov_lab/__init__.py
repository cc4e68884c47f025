"""Numerical laboratory for Steklov spectra of finely perforated domains.

Builds exact-tiling perforated geometries, graded conforming meshes, P1
finite-element matrices, and generalized eigensolvers, then measures how the
boundary spectra approach the weighted Dirichlet limit as the holes shrink
at the critical rate.
"""

__version__ = "0.1.0"

from .geometry import (Cell, Domain, GeometryError, Hole, PerforatedGeometry,
                       build_perforated_geometry, build_square_tessellation,
                       cell_weight, geometry_from_json, geometry_to_json,
                       kappa, l_shape, make_domain, place_holes, rectangle,
                       unit_square, validate_assumptions, weight_field)
from .meshgen import (CellMeshTemplate, Mesh, MeshError, export_mesh,
                      load_mesh, mesh_perforated, mesh_unperforated, refine)
from .fem import (DofMap, FemError, apply_dirichlet, assemble_hole_mass,
                  assemble_mass, assemble_stiffness, assemble_weighted_mass,
                  build_dofmap, edge_mass, h_eps_norm, interpolate)
from .eigen import (EigenError, SpdFactorization, SpectralResult,
                    dense_reference_eigs, factor_spd, largest_pencil_eigs,
                    smallest_pencil_eigs)
from .spectra import (Condensed, GapReference, HomogenizedPair, RateModel,
                      ResolventGapSample, SpectrumPair, condense, fit_rate,
                      gap_reference, hausdorff, homogenized_pair,
                      homogenized_spectrum, rate_scale, resolvent_gap,
                      spectrum_pair, steklov_spectrum,
                      truncated_spectrum_distance)
from .study import (StudyConfig, StudyReport, config_from_dict, load_config,
                    oracle_selftest, run_study, write_report)
