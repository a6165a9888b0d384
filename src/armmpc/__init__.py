"""QP-based real-time model predictive control for serial manipulators."""

from importlib import resources

from .robot_model import (
    JointLimits,
    JointSpec,
    LinkInertia,
    ModelError,
    ModelParseError,
    PayloadSpec,
    RigidTransform,
    RobotModel,
    attach_payload,
    load_model,
)
from .kinematics import (
    ChainState,
    Pose,
    forward_kinematics,
    geometric_jacobian,
    jacobian_dot,
)
from .dynamics import (
    DynamicsDerivatives,
    FactorizationError,
    RigidBodyState,
    bias_forces,
    dynamics_derivatives,
    forward_dynamics,
    inverse_dynamics,
    mass_matrix,
)
from .nominal import (
    NominalRollout,
    PostureSpec,
    TaskSpec,
    compact_svd_pinv,
    default_posture,
    default_task_hierarchy,
    ik_rollout,
    osc_rollout,
    osc_torque,
)
from .qp import QpProblem, QpSolution, QpSolver, kkt_check
from .trajgen import (
    SCENARIOS,
    TaskTrajectory,
    cubic_spline_position,
    quaternion_interp,
    scenario_initial_config,
    scenario_trajectory,
)
from .mpc_kinematic import KinematicMpc, KinematicMpcConfig
from .mpc_dynamic import DynamicMpc, DynamicMpcConfig
from .simulator import (
    RunMetrics,
    ScenarioConfig,
    default_scenario_config,
    run_scenario,
    step_position_plant,
    step_torque_plant,
)

__version__ = "0.1.0"

BUNDLED_MODELS = ("rs007n", "rs020n")


def bundled_model_path(name: str):
    """Filesystem path of a model shipped with the package."""
    if name not in BUNDLED_MODELS:
        raise KeyError(f"no bundled model {name!r}; available: {BUNDLED_MODELS}")
    return resources.files(__name__) / "models" / f"{name}.robot.json"


def load_bundled_model(name: str) -> RobotModel:
    return load_model(bundled_model_path(name))
