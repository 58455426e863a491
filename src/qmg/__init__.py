"""Entangled minority-game channel allocation: exact interference math,
dense qudit/qubit simulators, and a slotted cognitive-radio MAC benchmark."""

from .game import (
    GameConfig,
    InvalidConfigError,
    DimensionError,
    SupportProbabilities,
    ClassicalProbabilities,
    analytic_probabilities,
    classical_probabilities,
    entangled_coefficient,
    in_support,
    outcome_amplitude,
    outcome_amplitude_closed_form,
    phase_for_regime,
    root_of_unity,
    sample_outcomes,
    strategy_matrix,
)
from .qudit import (
    QuditState,
    ResourceLimitError,
    StateIntegrityError,
    apply_local_strategy,
    prepare_entangled,
    sample_counts,
)
from .circuit import (
    Gate,
    QubitRegister,
    PreparationAudit,
    audit_preparation_circuit,
    build_preparation_circuit,
    export_circuit,
    parse_circuit,
    register_to_qudit,
    run_circuit,
)
from .mac import (
    AllocatorPolicy,
    CellConfig,
    MacMetrics,
    PolicyComparison,
    compare_policies,
    run_cell,
    run_mesh_rounds,
)

__version__ = "0.1.0"
