"""Shared fixtures: each example metric is built once per test session.

The hypothesis profile "ci" draws the same examples on every run (set
``HYPOTHESIS_PROFILE=ci``); local runs keep the default, random profile.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

from finslerlab.curvature import FieldScope
from finslerlab.metrics import BUILTIN_NAMES, build_metric, builtin

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def corpus():
    """Mapping name -> built metric for the whole example registry."""
    return {name: build_metric(builtin(name)) for name in BUILTIN_NAMES}


@pytest.fixture()
def nan_field(monkeypatch):
    """Call with a field name: every scope then reads that field's values as NaN."""

    def poison(target):
        values = FieldScope.values

        def patched(self, name):
            out = values(self, name)
            return np.full_like(out, np.nan) if name == target else out

        monkeypatch.setattr(FieldScope, "values", patched)

    return poison
