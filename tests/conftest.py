import sys
from pathlib import Path

import pytest

from sdglab.config import load_experiment
from sdglab.pde import IsaacsSolver

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def analytic_problem():
    """Singleton actions on (0, 1) with the closed-form value x(1-x)/2."""
    return load_experiment(CONFIGS / "analytic.cfg").problem


@pytest.fixture(scope="session")
def game_problem():
    """The 2x2 drift game whose saddle switches in space for both players."""
    return load_experiment(CONFIGS / "game2x2.cfg").problem


@pytest.fixture(scope="session")
def holder_problem():
    """The 2x2 game with a Hoelder cost valley at the center."""
    return load_experiment(CONFIGS / "holder.cfg").problem


@pytest.fixture(scope="session")
def solved_analytic(analytic_problem):
    return IsaacsSolver(h=1 / 128).fit(analytic_problem)


@pytest.fixture(scope="session")
def solved_game(game_problem):
    return IsaacsSolver(h=1 / 128).fit(game_problem)


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
