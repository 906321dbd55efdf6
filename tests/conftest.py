"""Shared test configuration: the Hypothesis profiles.

Property tests set their local example budget per test.  The ``ci`` profile
(``pytest --hypothesis-profile=ci``) raises Hypothesis' default example
budget five times; the differential suite
(``tests/test_in_order_evaluator.py``) scales its per-test budgets by the
loaded profile's budget over the default one, so it runs five times the
examples under ``ci`` and today's budget locally.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=5 * settings.get_profile("default").max_examples)
