"""Highly connected biplane geometric graphs: constructions, augmentation
and independent verification."""

from .errors import (BiplaneError, ImpossibleError, InternalInvariantError,
                     PreconditionError)
from .geometry import (COORD_LIMIT, Orientation, Point, PointSet, convex_hull,
                       is_convex_position, max_convex_subset,
                       max_convex_subset_indices, orientation,
                       point_sees_hull_edge, segment_sees_hull_edge,
                       segments_properly_cross)
from .layered import (BOTH, LAYER1, LAYER2, LayeredGraph,
                      saturate_to_maximal_biplane, union_of_triangulations)
from .triangulation import (Quad, Triangulation, TriangulationClass, classify,
                            complete_to_triangulation, flip, is_flippable,
                            quad_of_edge, triangulate)
from .connectivity import (Bichord, CutReport, SeparatingTriangle,
                           check_4conn_augmentation, compute_layering,
                           crossing_conflict_graph, cut_structures,
                           is_two_edge_connected, kappa_of, verify_layering,
                           vertex_connectivity)
from .convex import (build_4conn_convex, build_5conn_convex,
                     find_hamiltonian_cycle, grow_4conn_planar, octahedron,
                     realize_hamiltonian_on_convex, vertex_split)
from .insertion import (MIN_POINTS_GUARANTEEING_14_CONVEX, InsertionState,
                        build_5conn_general, check_property_maxi,
                        find_flippable_opposite, insert_hull_points,
                        insert_interior_point)
from .augment import augment_to_4conn, flip_pair_helper
from .treeaug import (CellTree, LeafCell, RootedTreeIndex, augment_tree_2edge,
                      biplane_after_3conn_augment, build_cell_tree,
                      min_augment_3conn)
from .generators import (generate_fan, generate_no5conn_counterexample,
                         generate_wheel, random_general_position,
                         random_plane_tree, random_triangulation,
                         regular_polygon_points)
from .formats import (dumps_layered, dumps_points, edges_as_layered,
                      loads_layered, loads_points)
from .render import render_svg

__all__ = [name for name in dir() if not name.startswith("_")]
