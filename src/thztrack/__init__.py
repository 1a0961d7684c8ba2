"""Frequency-scanning beam tracking and beamforming codebooks for TTD-aided wideband arrays."""

from .beampattern import (
    LobeGeometry,
    PeakMap,
    angle_map,
    array_gain,
    dirichlet,
    lobe_geometry,
    peak_map,
    sidelobe_locations,
)
from .codebook import JointCodebook, QuantGrid, build_codebook, quantized_pairing, snap
from .harness import (
    MetricsReport,
    ScenarioConfig,
    TrialRecord,
    beamforming_gain,
    nmse,
    nmse_db,
    run_trial,
    scenario_from_file,
    sweep,
)
from .leakage import (
    CprProblem,
    CprState,
    build_cpr_problem,
    objective,
    objective_gradient,
    refine,
    update_gain,
    update_phases,
)
from .pairing import (
    BACKWARD,
    FORWARD,
    PairingConfig,
    RadiusBounds,
    backward_bound,
    fixed_radius,
    forward_backward_bound,
    forward_bound,
    forward_single_slot_bound,
    inter_fraction_ok,
    large_angle_bound,
    make_pairing,
    mode_bound,
    quasi_fixed_radius,
    radius_bounds,
    sidelobe_mainlobe_frequency,
)
from .physmodel import (
    ChannelResponse,
    PathComponent,
    PrecoderConfig,
    SubcarrierGrid,
    SystemConfig,
    channel_response,
    default_config,
    from_physical,
    precoder_matrix,
    steering_vector,
    to_physical,
)
from .tracker import (
    TrackingEstimate,
    TrackingObservation,
    TrackingPlan,
    coarse_estimate,
    estimate_angle,
    plan_tracking,
    run_tracking,
    select_strongest,
)

__version__ = "0.1.0"
