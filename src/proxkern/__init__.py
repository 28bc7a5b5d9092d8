"""proxkern: linear-cost kernels from large (non-)metric proximity matrices.

The package turns pairwise similarity or squared dissimilarity matrices,
metric or not, into valid positive semi-definite kernel representations
using landmark (Nystrom) factorization, interleaved double centering and
eigenvalue correction, with out-of-sample extension and evaluation tools.
"""

__version__ = "0.1.0"

from .baselines import LmdsEmbedding, lmds_fit, lmds_project
from .corrections import (
    CorrectedModel,
    build_corrected_model,
    correct_eigenvalues,
    corrected_block,
    fit_corrected_model,
    fit_corrected_model_from_factors,
    load_model,
    save_model,
)
from .dataio import (
    DataError,
    Kind,
    ProximityMatrix,
    ball_centers,
    ball_dataset,
    ball_surface_row,
    read_block,
    read_labels,
    read_matrix,
    write_block,
    write_labels,
    write_matrix,
)
from .eigencore import EigenPair, Signature, pinv_sym, signature_of, sym_eig
from .evaluate import (
    BenchRecord,
    CvReport,
    benchmark_scaling,
    convergence_probe,
    crossvalidate,
    fit_ridge_classifier,
    loglog_slope,
    predict_classes,
    proximity_fidelity,
    spearman_rho,
    stratified_folds,
)
from .nystrom import (
    CenteringStats,
    EigenModel,
    NystromFactors,
    RowOracle,
    as_row_oracle,
    center_dissimilarity_rows,
    nystrom_double_center,
    nystrom_eig_indefinite,
    nystrom_eig_psd,
    load_factors,
    nystrom_factors,
    reconstruct_block,
    save_factors,
    select_landmarks,
)
from .oos import extend_dissimilarities, extend_features, extend_similarities
from .transforms import KindMismatchError, double_center, sim_to_dis
