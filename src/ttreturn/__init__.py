"""Online gradient-descent optimization of ball-return interception policies.

A two-dimensional policy (base yaw, racket tilt) decides how a robot arm
returns a launched ball; projected gradient descent on observed landing
errors steers the policy toward a target landing point, using either a
first-principles landing predictor with analytic gradients or a small
trained surrogate model.
"""

from .arm import InterceptionEvent, InterceptionPolicy, interception_event
from .ballistics import (
    LandingRecord,
    Physics,
    landing_state_jacobian,
    propagate_to_landing,
    remaining_time_gradient,
)
from .blackbox import (
    Dataset,
    MlpModel,
    TrainConfig,
    mlp_forward,
    mlp_jacobian,
    train,
)
from .env import TRUTH, EnvConfig, estimate_variance, intercept, launch
from .errors import (
    AbortedRun,
    ConfigError,
    DegenerateDataset,
    InfeasibleRegion,
    MissedBall,
    NoCrossing,
    OutOfReach,
    SimulationError,
)
from .greybox import (
    MODEL,
    predict_landing,
    predict_landing_with_gradient,
)
from .harness import (
    ExperimentConfig,
    GradCheckReport,
    gen_dataset,
    gen_dataset_greybox,
    grad_check_report,
    run_experiment,
)
from .impact import impact_state_jacobian, racket_impact
from .metrics import MetricsState
from .optimizer import FeasibleSet, RunLog, gd_update, project, run_online

__version__ = "0.1.0"
