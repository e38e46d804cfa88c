"""Shared test settings.

``fredinfo`` is the Hypothesis profile for property tests: derandomized, so
every run checks the same cases, with no deadline and no example database.
"""

from hypothesis import settings

settings.register_profile("fredinfo", derandomize=True, deadline=None, database=None)
