"""Shared test settings: one deterministic Hypothesis profile.

Property tests draw the same examples on every run, with no per-example
deadline (timings vary with machine load) and a bounded example count, so
they stay reproducible and cheap without any command-line flag.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without Hypothesis
    pass
else:
    settings.register_profile(
        "deterministic", derandomize=True, deadline=None, max_examples=100, database=None
    )
    settings.load_profile("deterministic")
