from hypothesis import settings

# Fixed examples and no time limit: the property tests give the same verdict
# on every run and machine.
settings.register_profile("ncgrav", derandomize=True, deadline=None,
                          max_examples=50, database=None)
settings.load_profile("ncgrav")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
