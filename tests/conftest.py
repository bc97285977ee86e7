"""Suite-wide test settings.

Hypothesis draws a fixed example set on every run: examples are derived from
each test's source (``derandomize``), nothing is stored between runs, and no
example has a deadline, since a shared machine's speed drifts.  A test's own
``@settings`` keeps its budget and inherits the rest.
"""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None, deadline=None)
settings.load_profile("fixed")
