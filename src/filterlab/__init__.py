"""filterlab: a continuous-time nonlinear filtering laboratory.

Simulates correlated jump-diffusion signal/observation models, runs a
change-of-measure particle filter, and verifies the filtering equations and
exponential-martingale criteria against exact oracles and closed forms.
"""

__version__ = "0.1.0"
