"""Amplitude-encoding circuit synthesis and verification.

Builds circuits that load a classical non-negative unit vector into the
amplitudes of a quantum register, using multiplexed rotations, bottom-up
state combining with controlled swaps and measurement-based
disentangling, or an interpolation of the two.  A branch-enumerating
statevector simulator verifies that every measurement outcome leaves the
data register in the requested state.
"""

from .circuit import (
    Circuit,
    Condition,
    Gate,
    ResourceReport,
    deserialize,
    metrics,
    serialize,
)
from .discrimination import AdaptiveMeasPlan, OrthPair, decompose, evaluate_plan, solve_ua
from .divide_conquer import (
    DcOptions,
    compile_disentangler,
    synthesize_dc,
    synthesize_hybrid,
    synthesize_time,
)
from .resources import dc_formulas, hybrid_formulas, midreset_formulas, reuse_schedule
from .simulator import (
    Branch,
    VerificationReport,
    data_probabilities,
    fidelity,
    run,
    statevector,
    verify_preparation,
)
from .tree import (
    AmplitudeTree,
    build_tree,
    pad_to_power_of_two,
    preorder,
    subtree_state,
)

__all__ = [
    "AdaptiveMeasPlan",
    "AmplitudeTree",
    "Branch",
    "Circuit",
    "Condition",
    "DcOptions",
    "Gate",
    "OrthPair",
    "ResourceReport",
    "VerificationReport",
    "build_tree",
    "compile_disentangler",
    "data_probabilities",
    "dc_formulas",
    "decompose",
    "deserialize",
    "evaluate_plan",
    "fidelity",
    "hybrid_formulas",
    "metrics",
    "midreset_formulas",
    "pad_to_power_of_two",
    "preorder",
    "reuse_schedule",
    "run",
    "serialize",
    "solve_ua",
    "statevector",
    "subtree_state",
    "synthesize_dc",
    "synthesize_hybrid",
    "synthesize_time",
    "verify_preparation",
]

__version__ = "0.1.0"
