import os

# Pin BLAS to one thread before numpy loads: on a small host a threaded
# matmul of the sizes these tests use costs milliseconds.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, no timing flakes, and a bounded cost
    settings.register_profile("gonosim", derandomize=True, deadline=None, max_examples=50, database=None)
    settings.load_profile("gonosim")

ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
