"""Shared pytest setup: a deterministic, small Hypothesis profile, so the
property tests draw the same examples on every run and stay cheap."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=15, database=None)
settings.load_profile("tier1")
