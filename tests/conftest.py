"""One Hypothesis profile for every property test of the suite.

Derandomised, so every run draws the same examples; no deadline, because an
example's time depends on the host; no example database, so no run depends
on what an earlier run left on disk. A test's own @settings adds only its
max_examples.
"""

from hypothesis import settings

settings.register_profile("iecpulse", derandomize=True, deadline=None, database=None)
settings.load_profile("iecpulse")
