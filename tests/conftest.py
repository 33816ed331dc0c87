"""Shared fixtures for the test suite; track builders live in ``tracks.py``."""

from __future__ import annotations

import pytest

from motionkit.core import HorizonConfig


@pytest.fixture
def horizon() -> HorizonConfig:
    return HorizonConfig()
