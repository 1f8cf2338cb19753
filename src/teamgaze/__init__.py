"""teamgaze: joint-visual-attention scoring and team collaboration
analytics from per-frame gaze-point predictions."""

from .model import (
    Condition,
    FrameRecord,
    GazeObservation,
    GenderComposition,
    Group,
    Heatmap,
    Point2D,
    TeamSession,
    group_for_condition,
    team_post_test_score,
    validate_session,
)
from .gazefield import (
    DirectionField,
    SyntheticScene,
    decode_heatmap,
    encode_direction_field,
    load_heatmap_text,
    multiscale_fields,
    synthetic_predict,
)
from .jva import (
    DenominatorPolicy,
    JvaConfig,
    JvaFrameResult,
    JvaSessionResult,
    ScaleMode,
    classify_frame,
    session_jva,
)
from .stats import (
    AnovaResult,
    CorrelationResult,
    GroupSummary,
    anova_from_summary,
    anova_oneway,
    cohens_d,
    correlation_from_r,
    f_tail_p,
    pearson,
    summarize,
)
from .synth import SynthSpec, generate, moment_matched_groups
from .io_report import (
    Report,
    analyze_report,
    build_sessions,
    emit_report,
    load_frames,
    load_teams,
    paper_fixture_path,
)

__version__ = "0.1.0"
