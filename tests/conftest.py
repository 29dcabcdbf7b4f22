"""Shared test settings: every hypothesis property runs the same examples on
every run, and nothing is stored between runs."""

from hypothesis import settings

settings.register_profile("feederlimits", derandomize=True, database=None)
settings.load_profile("feederlimits")
