"""Every property test draws the same examples on every run: Hypothesis
derives them from each test's name, not from a random seed, and keeps no
example database between runs."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
