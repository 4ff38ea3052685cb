"""Hypothesis profiles: ``--hypothesis-profile=ci`` draws the same examples on every run.

Under ``ci`` a test's examples are derived from the test alone
(``derandomize``), with no time limit per example, and a failure prints the
blob that reproduces it (``@reproduce_failure``). Without the option, runs
keep hypothesis's default random draws.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
