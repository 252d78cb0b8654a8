"""Hypothesis profiles. ``pytest --hypothesis-profile=ci`` prints a
``@reproduce_failure`` blob with each falsifying example, so a failure
seen only in a CI log can be replayed; it changes no drawn example."""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
