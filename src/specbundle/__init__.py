"""Spectral bundle solver for semidefinite programs with mixed equality and
inequality constraints, which keeps the primal matrix as a randomized
(Nystrom) sketch, with end-to-end MaxCut / assignment-problem pipelines."""

from .bundle import (
    BundleModel,
    Mapping,
    PrimalOutput,
    Residuals,
    SolverConfig,
    SolverState,
    cold_start,
    compute_residuals,
    default_config,
    load_state,
    primal_output,
    save_state,
    solve,
    state_from_record,
    warm_start_pad,
)
from .eigsolve import EigResult, LinOp, lanczos_top
from .problem import (
    GraphInstance,
    QapInstance,
    SdpProblem,
    build_maxcut,
    build_qap,
    parse_graph_mm,
    parse_qaplib,
    proj_K,
    write_graph_mm,
    write_qaplib,
)
from .rounding import CutResult, GapTracker, PermResult, hungarian, maxcut_round, qap_round
from .sketch import NystromSketch, reconstruct, sketch_init, sketch_update
from .subqp import (
    EvalCoeffs,
    IpmState,
    QuadCoeffs,
    alternating_max,
    assemble_eval_coeffs,
    assemble_quad_coeffs,
    ipm_eval,
    ipm_quad,
)

__version__ = "0.1.0"
