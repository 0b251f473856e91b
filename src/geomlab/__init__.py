"""geomlab: desk-scale experiments on discretized point-line incidences in
the plane and their consequences for vertical projections, the two-projection
volume bound, and the horizontal Sobolev inequality in the Heisenberg group."""

__version__ = "0.1.0"

from .planar import (LineFamily, Point2, PointSet, Scale, dual_lines,
                     dual_points, incident, threshold, validate_separation)
from .incidence import (IncidenceReport, RichPointResult, count_bucketed,
                        count_incidences, count_naive, k_rich_points,
                        max_concurrency, normalized_ratio)
from .heisenberg import (Plane, VerticalPlanePoint, dilate, gauge4, h_inv,
                         h_mul, proj_x, proj_y, reduce_to_incidences,
                         tube_inclusion_check)
from .measure import (Box, KoranyiBall, PlaneRegion, VoxelSet, boundary,
                      boundary_projection_inclusion, h3_surrogate, lw_ratio,
                      project_voxels, tube_intersection_volume, voxelize,
                      weak_isoperimetric_ratio)
from .sobolev import (GridFunction, field_X, field_Y, gns_check,
                      levelset_lemma_check, lp_norm, sample_to_grid)
