"""Fixtures shared by the test modules; their oracles and generators are in ``helpers``."""

from __future__ import annotations

import random

import pytest


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
