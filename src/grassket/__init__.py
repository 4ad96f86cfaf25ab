"""grassket: sketched eigendecompositions of matrix-free operators, subspace
metrics on the Grassmannian, sparse magnitude masks, and the overlap between
the two, with chance-level baselines and a chunked matrix store."""

from .errors import ContractViolation, IntegrityError
from .experiments import (BaselineResult, OverlapCurve, overlap_curve,
                          ranked_theta, rho_to_k, run_baseline, verify_lemma)
from .grassmann import (MetricKind, OrthonormalBasis, PrincipalAngles, metric,
                        metric_max, overlap, overlap_baseline,
                        principal_angles, sample_stiefel, similarity)
from .masks import (SparseMask, hamming, iou, mask_basis,
                    mask_eigenspace_overlap, sample_mask, topk_magnitude_mask)
from .operators import (CountingOperator, DenseOperator, LinearOperator,
                        PlantedOperator, eigh_by_magnitude, make_planted_operator)
from .sketch import MeasurementEnsemble, SketchedEigh, draw_measurements, seigh

__version__ = "0.11.0"
