"""Imitation learning by fitting soft advantages through a structured
discriminator, with exact tabular oracles for verification.

The discriminator of trajectories is parameterized directly by the policy
being learned, so discriminator training is policy training and no
reinforcement-learning step exists anywhere.  Variants cover full
trajectories, fixed-size windows, and single transitions, plus a
transition-wise scored form for discrete actions and a behavioral-cloning
baseline.  Everything runs on exact desk-scale environments where
trajectory distributions, occupancies, and divergences can be enumerated
and compared against training outcomes at tight tolerances.
"""

import types

from .envs import (
    EnvSpec,
    PackedWindows,
    PointMassSpec,
    ScriptedPointMassPolicy,
    SoftExpertPolicy,
    SoftQTable,
    TabularMdp,
    TabularSpec,
    chain_spec,
    env_by_id,
    gridworld_spec,
    rollout,
    soft_value_iteration,
)
from .discriminator import (
    AsqfModel,
    Window,
    asqf_bce_loss,
    structured_log_d,
    window_split,
)
from .exact import (
    OccupancyTable,
    exact_traj_distribution,
    expected_return,
    js_between,
    js_divergence,
    occupancy,
    verify_lemma1,
)
from .nn import AdamState, Mlp, adam_step, grad_check
from .policies import CategoricalPolicy, GaussianPolicy, make_policy, tabular_policy_extract
from .train import (
    DemoSet,
    RunLog,
    RunRecord,
    TrainConfig,
    evaluate_policy,
    train,
)
from .verify import collect_expert_demos

__version__ = "0.1.0"

# every name imported above, and none of the submodules those imports bind
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
