"""Shared fixtures: a provisioned device, its manufacturer, a remote
user, and an honest host — the full cast of the paper's threat model.
Plus :func:`wait_for`, the one polling helper (``from conftest import
wait_for``)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.device import GuardNNDevice
from repro.core.host import HonestHost
from repro.core.session import UserSession
from repro.crypto.pki import ManufacturerCA
from repro.crypto.rng import HmacDrbg


@pytest.fixture
def manufacturer() -> ManufacturerCA:
    return ManufacturerCA(HmacDrbg(b"test-manufacturer-seed"))


@pytest.fixture
def device(manufacturer) -> GuardNNDevice:
    return GuardNNDevice(b"accel-under-test", manufacturer, seed=b"test-device-seed",
                         dram_bytes=1 << 20, debug_log_vns=True)


@pytest.fixture
def user(manufacturer) -> UserSession:
    return UserSession(manufacturer.root_public, HmacDrbg(b"test-user-seed"))


@pytest.fixture
def host(device) -> HonestHost:
    return HonestHost(device)


@pytest.fixture
def established(device, user, host):
    """A ready session (integrity on): returns (device, user, host)."""
    user.authenticate_device(host.fetch_device_info())
    host.establish_session(user, enable_integrity=True)
    return device, user, host


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def wait_for(predicate, timeout=30.0, interval=0.02):
    """Poll ``predicate`` every ``interval`` seconds: True once it holds,
    :class:`TimeoutError` if it does not within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    raise TimeoutError("condition not reached")
