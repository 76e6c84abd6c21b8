"""Minimum-weight satisfiability over Boolean constraint languages.

The package classifies the tractability of the "is this atom true in some
minimum-weight model?" question for any finite constraint language, solves
instances with the matching engine, and implements the hardness reductions
and minimal weak bases underpinning the classification.
"""

from .abduction import (CLOSED_WORLD, PAP, POSITIVE_UNITS, XorClause, is_solution, parse_pap,
                        reduce_cms_xor3_to_relevance, relevance_bruteforce, render_pap)
from .bruteforce import (cms_bruteforce, cms_star_bruteforce, enumerate_models, frozen_vars)
from .classify import (AND2, BoolOp, MAJ3, NOT1, OR2, PropertyFingerprint, closed_under,
                       conjunction_definability, fictitious_coordinates, fingerprint,
                       is_irredundant, pp_membership)
from .coclones import (Bucket, ClassificationVerdict, CoCloneId, all_labels, bucket_for_coclone,
                       classify_cms, cms_bucket, coclone_leq, identify_coclone,
                       language_in_coclone, relation_in_coclone, weak_base)
from .errors import (CardMinSatError, GuardError, NoSolutionError, ParseError, PreconditionError)
from .fileio import (FormulaFile, load_formula_file, load_language, parse_formula_file,
                     parse_language, render_formula_file, render_language, render_relation)
from .formulas import (Assignment, CmsAnswer, CmsStarInstance, Constraint, Formula, constraint)
from .gauss import (GF2Solver, affine_parity_checks, cms_affine, formula_system, gauss_solve,
                    is_affine)
from .reductions import (ChainPipeline, ReductionOutput, ReductionStats, compose_chain,
                         lift_model, reduce_nae3_to_xor3_star, reduce_or2_to_nae3,
                         reduce_to_weakbase, reduce_xor3_star_to_xor4, reduce_xor3xor2_to_xor3,
                         reduce_xor4_to_xor3_xor2, restrict_model)
from .relations import ConstraintLanguage, Relation, build_named_relation
from .search import find_model, sat_leq
from .solvers import (Engine, SolveReport, dispatch, oracle_budget, solve_brute, solve_generic,
                      solve_horn, solve_width2affine)

__version__ = "0.1.0"
