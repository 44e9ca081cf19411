"""Test-suite settings shared by tests/ and perfbench/tests/.

Hypothesis derives its examples from each test's source instead of a
random seed, and keeps no example database, so every run of the suite
explores the same inputs and passes or fails the same way.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
