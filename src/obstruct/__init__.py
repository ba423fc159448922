"""Obstruction checks for noncommutative deformations of Poisson manifolds.

Given a chart with a metric and a Poisson bivector, this package evaluates
the pointwise conditions a smooth noncommutative deformation must satisfy:
a divergence-free bivector (so integration deforms into a trace), a flat
torsion-free metric contravariant connection (so 1-forms and the metric
deform), the flatness of the companion metric g' in the symplectic case,
and the Lie-algebraic specializations (classical Yang-Baxter defect and
quantum-group divergence).
"""

__version__ = "0.1.0"  # the one version source; pyproject.toml reads it

from .catalog import CatalogEntry, example_names, load_example
from .contravariant import (ATensor, CurvatureK, Frame, a_tensor,
                            alpha_defect, apply_connection,
                            curvature_definitional, curvature_explicit,
                            gprime, gprime_riemann, koszul_oracle_connection,
                            linearized_defect, metric_compat_defect,
                            perturbation_from_oneform, torsion_defect)
from .exprlang import ExprSyntaxError, UnknownIdentifier, eval_jet, parse
from .geometry import (Christoffels, PointEvaluation, Scene,
                       SceneValidationError, christoffels,
                       covariant_derivative, eval_field, metric_inverse,
                       riemann, volume_density)
from .jets import Jet2, JetDomainError
from .liealg import (LieAlgebraPresentation, RMatrix, cybe_defect,
                     dual_curvature_closed_form, koszul_left_invariant,
                     linear_poisson_scene, qg_curvature, qg_divergence,
                     sl2, su2, validate)
from .poisson import (DegeneratePoissonError, OneFormField, divergence_defect,
                      divergence_oracle, jacobi_defect, koszul_bracket,
                      pi_rank, sharp, symplectic_inverse)
from .report import (CheckConfig, CheckResult, ObstructionReport,
                     render_report, run_checks)
