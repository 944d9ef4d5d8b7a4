"""Highly connected biplane geometric graphs: constructions, augmentation
and independent verification."""

from .errors import (BiplaneError, ImpossibleError, InternalInvariantError,
                     PreconditionError)
from .geometry import (COORD_LIMIT, Point, PointSet, convex_hull,
                       is_convex_position, max_convex_subset_indices,
                       segments_properly_cross)
from .layered import BOTH, LAYER1, LAYER2, LayeredGraph
from .triangulation import (Triangulation, TriangulationClass, classify,
                            complete_to_triangulation, flip, is_flippable,
                            triangulate)
from .connectivity import (Bichord, CutReport, SeparatingTriangle,
                           check_4conn_augmentation, compute_layering,
                           crossing_conflict_graph, cut_structures, kappa_of,
                           min_vertex_cut, verify_layering, vertex_connectivity)
from .convex import (build_4conn_convex, build_5conn_convex,
                     find_hamiltonian_cycle)
from .insertion import (MIN_POINTS_GUARANTEEING_14_CONVEX, InsertionState,
                        build_5conn_general, check_property_maxi,
                        find_flippable_opposite, insert_hull_points,
                        insert_interior_point)
from .augment import augment_to_4conn, flip_pair_helper
from .treeaug import (CellTree, LeafCell, RootedTreeIndex, build_cell_tree,
                      min_augment_3conn)
from .generators import (generate_fan, generate_no5conn_counterexample,
                         generate_wheel, random_general_position,
                         random_triangulation, regular_polygon_points)
from .formats import dumps_layered, dumps_points, loads_layered, loads_points
from .render import render_svg

__all__ = [name for name in dir() if not name.startswith("_")]
