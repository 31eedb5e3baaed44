from hypothesis import settings

# Derandomized: each property test draws the same examples on every run, so
# two runs of one commit give the same result. Each test keeps its own
# max_examples.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
