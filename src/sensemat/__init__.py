"""sensemat: build and evaluate sensing matrices for slotted multi-user
opportunistic spectrum access."""

__version__ = "0.1.0"

from .model import (
    ChannelProfile,
    TimingConfig,
    SensingQuality,
    ERROR_FREE,
    slot_effectiveness,
    per_slot_rate,
    rate_table,
    false_alarm_for_sensing_time,
    as_matrix,
    validate_matrix,
)
from .throughput import (
    ThroughputReport,
    SearchBudgetError,
    collision_sum,
    network_throughput_closed_form,
    expected_throughput_exact,
    optimal_matrix_search,
    count_repetition_free,
    repetition_free_candidates,
)
from .allocators import (
    rotation_start_user,
    sms_reward,
    cumulative_reward,
    build_sms_matrix,
    occupation_probability,
    contention_factor_hbar,
    msms_reward,
    pmsms_reward,
    build_msms_matrix,
    build_pmsms_matrix,
)
from .energy import (
    EnergyConfig,
    expected_handovers,
    handover_enumeration_oracle,
    expected_sensing_count,
    total_search_energy,
    homogeneous_energy_closed_form,
    full_sequence_sensing_energy,
    sms_energy_bounds,
)
from .simulate import (
    SimConfig,
    SimReport,
    SuOutcome,
    simulate_slot,
    run_simulation,
    fairness_metrics,
    build_variant_matrices,
)
from .config import ConfigError, ExperimentConfig, parse_config
from .experiments import SweepResult, emit_csv, read_csv, run_experiment_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
