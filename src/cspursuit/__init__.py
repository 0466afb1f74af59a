"""Chunk-sparse signal recovery with prior support information.

Signals are matrices whose rows fall into K chunks of height d; only a few
chunks are nonzero, and an earlier estimate of which ones (with a floor on
how many of them are still right) can be fed to the recovery algorithms.
Includes exact isometry-constant computation with the matching recovery
guarantees, a multi-antenna channel estimation front end, and a seeded
Monte-Carlo experiment harness.
"""
from .analysis import (BoundConstants, InequalityCheck, Lemma1Report,
                       RipQuery, block_rip_exact, block_rip_montecarlo,
                       channel_recovery_bound, cmsp_constants,
                       cmsp_convergence_bound, cmsp_distortion_bound,
                       cmsp_refined_distortion_bound, isometry_orders,
                       lemma1_check, msp_constants, msp_convergence_bound,
                       msp_distortion_bound, msp_refined_distortion_bound)
from .core import (ChunkIndexing, ChunkSupport, as_matrix, chunk_norms,
                   frobenius, ls_solve, ls_solve_with_rank, read_matrix,
                   submatrix_by_chunks, top_k_chunks, write_matrix)
from .errors import (BoundPreconditionError, ConfigError, CsPursuitError,
                     DimensionError, EnumerationCapError, FormatError,
                     GenerationError, MetricError, NonFiniteError,
                     PriorInfoError, RipViolationError, SelectionError)
from .experiments import (ExperimentConfig, ResultRow, load_config,
                          run_mismatch, run_sweep, write_csv)
from .mimo import (ALGORITHMS, ChannelFrame, FrameRecord, MimoScenario,
                   default_gamma, dft_unitary, generate_channel,
                   generate_pilots, nmse, recover_channel,
                   run_frame_sequence, to_cs_problem)
from .oracle import exhaustive_best_support, rip_bruteforce_reference
from .pursuit import (PursuitConfig, RecoveryResult, StopReason, cmsp_recover,
                      cmsp_support_merge, cmsp_support_refine, genie_ls,
                      mmv_sp_recover, msp_recover, msp_support_merge,
                      msp_support_refine, sp_recover)
from .sparsity import (ChunkSparseMatrix, PriorSupportInfo,
                       SupportEvolutionParams, chunk_support,
                       generate_chunk_sparse, generate_support_sequence,
                       validate_prior)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CsPursuitError", "DimensionError", "SelectionError", "FormatError",
    "PriorInfoError", "GenerationError", "EnumerationCapError",
    "RipViolationError", "BoundPreconditionError", "MetricError",
    "ConfigError", "NonFiniteError",
    # core
    "ChunkIndexing", "ChunkSupport", "as_matrix", "chunk_norms", "frobenius",
    "top_k_chunks", "submatrix_by_chunks", "ls_solve", "ls_solve_with_rank",
    "read_matrix", "write_matrix",
    # sparsity model
    "ChunkSparseMatrix", "PriorSupportInfo", "SupportEvolutionParams",
    "chunk_support", "generate_chunk_sparse", "generate_support_sequence",
    "validate_prior",
    # pursuit
    "StopReason", "PursuitConfig", "RecoveryResult", "msp_support_merge",
    "msp_support_refine", "msp_recover", "cmsp_support_merge",
    "cmsp_support_refine", "cmsp_recover", "sp_recover", "mmv_sp_recover",
    "genie_ls",
    # analysis
    "RipQuery", "BoundConstants", "InequalityCheck", "Lemma1Report",
    "block_rip_exact", "block_rip_montecarlo", "isometry_orders",
    "msp_constants",
    "cmsp_constants", "msp_distortion_bound", "msp_refined_distortion_bound",
    "msp_convergence_bound", "cmsp_distortion_bound",
    "cmsp_refined_distortion_bound", "cmsp_convergence_bound",
    "channel_recovery_bound", "lemma1_check",
    # mimo
    "ALGORITHMS", "MimoScenario", "ChannelFrame", "FrameRecord",
    "dft_unitary", "generate_pilots", "generate_channel", "to_cs_problem",
    "recover_channel", "nmse", "run_frame_sequence", "default_gamma",
    # oracle
    "exhaustive_best_support", "rip_bruteforce_reference",
    # experiments
    "ExperimentConfig", "ResultRow", "load_config", "run_sweep",
    "run_mismatch", "write_csv",
]
