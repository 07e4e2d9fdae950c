"""Centralization classifiers trained by linear programming.

The core model projects instances onto a coefficient vector chosen so
that each training point lands close to its own class center, with the
two projected centers forced apart.  Around it: a bounded-variable
simplex solver, a quadratic-criterion variant, kernelized training,
three alternative 1-D labeling rules, LDA and linear SVM baselines,
the repeated-split and grid-search evaluation procedures, synthetic
generators, and model files that round-trip predictions bit-exactly.
"""

from .baselines import (DEFAULT_LDA_REG, DEFAULT_SVM_LAMBDA, LdaModel,
                        SvmModel, hinge_objective, train_lda, train_linear_svm)
from .data import (DataError, Dataset, Normalizer, SHAPE_NAMES,
                   apply_normalizer, demo_gaussian_pair, denormalize_features,
                   drop_zero_variance, fit_normalizer, gen_gaussian_pair,
                   gen_shape, load_csv, normalize_features,
                   projected_covariance)
from .discriminators import (Discriminator, DiscriminatorError, KINDS,
                             discriminate, discriminator_score,
                             fit_discriminator, solve_svm_1d,
                             svm_1d_objective)
from .evaluation import (BenchmarkConfig, Discriminated, EvalError,
                         EvalReport, GridRecord, GRID_LDA_REG, GRID_SIGMA,
                         GRID_SVM_LAMBDA, Method, METHOD_NAMES, METHODS,
                         RocResult, RunRecord, aggregate_ranks, check_methods,
                         fit, rank_sum_test, report_to_csv, roc_auc,
                         run_benchmark, stratified_kfold, stratified_split,
                         summary_table)
from .kernel import (KernelLccModel, KernelSpec, assemble_klcc_lp, gram,
                     kernel_eval, median_pairwise_distance, train_klcc)
from .lcc import (DEFAULT_LAMBDA, DEFAULT_SIGMA, Centralizer, FqccModel,
                  LccModel, ParameterError, TrainingError, assemble_lcc_lp,
                  class_centers, fqcc_objective, model_from_beta, train_fqcc,
                  train_lcc)
from .lp import (CyclingError, LpFormatError, LpProblem, LpSolution,
                 format_problem, solve)
from .model_io import (ModelIoError, SavedClassifier, load_classifier,
                       predict_saved, save_classifier)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig", "Centralizer", "CyclingError", "DEFAULT_LAMBDA",
    "DEFAULT_LDA_REG", "DEFAULT_SIGMA", "DEFAULT_SVM_LAMBDA", "DataError",
    "Dataset", "Discriminated", "Discriminator", "DiscriminatorError",
    "EvalError", "EvalReport", "FqccModel", "GRID_LDA_REG", "GRID_SIGMA",
    "GRID_SVM_LAMBDA", "GridRecord", "KINDS", "KernelLccModel", "KernelSpec",
    "LccModel", "LdaModel", "LpFormatError", "LpProblem", "LpSolution",
    "METHODS", "METHOD_NAMES", "Method", "ModelIoError", "Normalizer",
    "ParameterError", "RocResult", "RunRecord", "SHAPE_NAMES",
    "SavedClassifier", "SvmModel", "TrainingError", "aggregate_ranks",
    "apply_normalizer",
    "assemble_klcc_lp", "assemble_lcc_lp", "check_methods", "class_centers",
    "demo_gaussian_pair", "denormalize_features", "discriminate",
    "discriminator_score", "drop_zero_variance", "fit", "fit_discriminator",
    "fit_normalizer", "format_problem", "fqcc_objective", "gen_gaussian_pair",
    "gen_shape", "gram", "hinge_objective", "kernel_eval", "load_classifier",
    "load_csv", "median_pairwise_distance", "model_from_beta",
    "normalize_features", "predict_saved", "projected_covariance",
    "rank_sum_test", "report_to_csv", "roc_auc", "run_benchmark",
    "save_classifier", "solve", "solve_svm_1d", "stratified_kfold",
    "stratified_split", "summary_table", "svm_1d_objective", "train_fqcc",
    "train_klcc", "train_lcc", "train_lda", "train_linear_svm",
]
