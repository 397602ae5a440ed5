"""One hypothesis profile for every property test: examples are drawn from a
fixed seed, so a failure seen in CI is drawn again locally and the run time
of the suite does not depend on which examples come up."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
