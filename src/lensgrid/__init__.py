"""Combinatorial knot Floer invariants of knots in lens spaces, computed
from twisted toroidal grid diagrams: generators and boundary maps, exact
Spin^c / Maslov / Alexander gradings, d-invariants, bigraded homology
with knot Floer group extraction, universal-cover lifts to square grid
diagrams, and an independent square-grid oracle for cross-validation."""

__version__ = "0.1.0"

from .errors import (InternalInvariantError, KnotRequiredError, LensGridError,
                     ParseError, SizeCapError, ValidationError)
from .grid import (Generator, GridDiagram, LensParams, LinkStructure,
                   canonical_generator, enumerate_grid_number_one,
                   format_grid, parse_grid, reconstruct_link, require_knot,
                   require_valid, validate)
from .cover import (S3GridDiagram, format_s3_grid, lift_diagram,
                    lift_generator, lift_points, parse_s3_grid, validate_s3)
from .gradings import (GradingTriple, alexander_grading, d_invariant,
                       dominance_count, grading_denominators, gradings_table,
                       maslov_grading, spin_grading)
from .complexes import (Parallelogram, SparseBoundary, boundary_export_lines,
                        build_boundary, enumerate_generators,
                        generator_code, generator_columns, generator_from_code,
                        grading_drop_violations, pack_term,
                        parallelograms_from, square_is_zero)
from .homology import (HomologyTable, extract_hfk_hat, gf2_rank,
                       homology_document, simplicity_report, tilde_homology)
from .s3 import (CoverReport, s3_alexander_total, s3_maslov,
                 s3_tilde_homology, verify_cover_relations)
