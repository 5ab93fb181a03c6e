"""Hypothesis profiles for the property tests (tests/test_properties.py).

`tier1`, loaded by default, is derandomized: every run draws the same
examples, so the suite stays reproducible and its time fixed.  `long`
draws fresh examples, many more of them:

    PYTHONPATH=src python3 -m pytest -q tests/test_properties.py --hypothesis-profile long
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "tier1", derandomize=True, database=None, max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("long", max_examples=2000, deadline=None)
settings.load_profile("tier1")
