import numpy as np
import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def field_counts(monkeypatch):
    """Counts of the n x n fields passed through numpy.fft.irfft/rfft, the
    second inverse pass and the first forward pass."""
    counts = {"irfft": 0, "rfft": 0}

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(a, *args, **kwargs):
            counts[name] += int(np.prod(np.shape(a)[:-2]))
            return fn(a, *args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(np.fft, name, counted(name))
    return counts
