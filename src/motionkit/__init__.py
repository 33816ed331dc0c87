"""motionkit: instruction-conditioned motion datasets and metrics for driving scenarios.

The package turns raw scenarios (agent tracks + vectorized lane maps) into
direction/speed/acceleration labels, lane-graph feasibility sets,
safety-grounded behavior labels, and templated instruction/caption records,
and evaluates trajectory generations against them (IFR, minADE/minFDE,
detection accuracies, GMM losses).
"""

from .attributes import (
    AccelCategory,
    DirectionLabel,
    DirectionThresholds,
    FineDirection,
    LabelRules,
    MotionAttributes,
    SpeedCategory,
    classify_acceleration,
    classify_direction_fine,
    classify_speed,
    classify_two_step,
    extract_motion_attributes,
)
from .behavior import (
    BehaviorLabel,
    BehaviorParams,
    GuidelineBook,
    Safety,
    classify_behavior,
    label_safety,
    load_default_guidelines,
    load_guidelines,
)
from .core import (
    AgentTrack,
    HorizonConfig,
    Lane,
    Scenario,
    parse_scenario,
    serialize_scenario,
)
from .feasibility import (
    Candidate,
    FeasTag,
    FeasibilityParams,
    FeasibilityReport,
    associate_lanes,
    enumerate_candidates,
    feasibility_set,
    reachable_range,
    tag_instruction,
)
from .geometry import wrap_angle
from .instructions import (
    Decision,
    InstructionRecord,
    SamplerConfig,
    build_behavior_row,
    build_direction_row,
    build_direction_rows,
    render_caption,
    render_instruction,
    render_reject_caption,
    sample_training_mix,
)
from .metrics import (
    EvalReport,
    PredictionSet,
    best_mode,
    detection_accuracy,
    gmm_nll,
    ifr_macro,
    ifr_micro,
    ifr_scenario,
    min_ade,
    min_fde,
    safety_accuracy,
    score_loss,
)
from .synth import (
    LaneGraphFixture,
    Phase,
    SynthExpectation,
    SynthSpec,
    default_suite,
    gen_lane_graph,
    gen_prediction_set,
    gen_scenario,
    gen_trajectory,
)

__version__ = "0.1.0"
