"""Shared pytest plumbing.

The acceptance module records one human-readable line per criterion in
ACCEPTANCE_LINES (appended before the assertions run, so failed criteria
still show up); the summary hook prints them after the normal pytest
report so the tee'd output always carries the per-criterion verdicts.
"""

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, so tier-1 stays deterministic
    settings.register_profile("rotorkit", derandomize=True, database=None,
                              deadline=None)
    settings.load_profile("rotorkit")
