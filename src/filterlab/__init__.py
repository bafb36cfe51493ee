"""filterlab: a continuous-time nonlinear filtering laboratory.

Simulates correlated jump-diffusion signal/observation models, runs a
change-of-measure particle filter, and verifies the filtering equations and
exponential-martingale criteria against exact oracles and closed forms.
"""

from .filters import FilterCollapse, FilterConfig, ParticleCloud, init_cloud, pi_estimate, run_filter, step
from .girsanov import Estimate, GirsanovEnsemble
from .models import Battery, LevySpec, ModelError, SignalModel, make_model
from .simulate import (
    PathBundle,
    SimulationBlowUp,
    TimeGrid,
    propagate_under_reference,
    simulate_pair,
)

__version__ = "0.1.0"
