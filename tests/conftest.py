import sys

from hypothesis import settings

# Every property test replays the same examples on every run and machine.
settings.register_profile("walras", derandomize=True, database=None, deadline=None)
settings.load_profile("walras")


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion lines after the run, outside capture."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "RESULT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
