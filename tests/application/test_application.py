"""Tests for the Application model."""

import pytest

from repro.application import Application
from repro.exceptions import InvalidApplicationError


class TestApplication:
    def test_basic(self):
        app = Application(tasks_per_iteration=5, iterations=10)
        assert app.m == 5
        assert app.iterations == 10

    def test_defaults(self):
        app = Application(tasks_per_iteration=3)
        assert app.iterations == 10

    @pytest.mark.parametrize("m", [0, -1, 1.5, True])
    def test_invalid_tasks(self, m):
        with pytest.raises(InvalidApplicationError):
            Application(tasks_per_iteration=m)

    @pytest.mark.parametrize("iterations", [0, -3, 2.5])
    def test_invalid_iterations(self, iterations):
        with pytest.raises(InvalidApplicationError):
            Application(tasks_per_iteration=1, iterations=iterations)

    def test_invalid_sizes(self):
        with pytest.raises(InvalidApplicationError):
            Application(tasks_per_iteration=1, program_size=-1.0)
        with pytest.raises(InvalidApplicationError):
            Application(tasks_per_iteration=1, data_size=-0.5)

    def test_describe_uses_name(self):
        app = Application(tasks_per_iteration=2, name="cg-solver")
        assert "cg-solver" in app.describe()
