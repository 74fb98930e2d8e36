"""Shared pytest configuration.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples; no deadline, because per-example times on a small
shared machine vary too much for one; and a bounded example count, so the
Fraction reference implementations they compare against stay affordable.
"""

from hypothesis import settings

settings.register_profile(
    "systolic", derandomize=True, deadline=None, max_examples=30, database=None
)
settings.load_profile("systolic")
