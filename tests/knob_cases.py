"""Where each serve/cluster system knob's default and range live.

Every knob is read and checked by one consumer: ``capacity`` by
:class:`~repro.serving.state.SessionStore`, the rest by
:class:`~repro.serving.service.ServiceConfig`. These helpers reach that
consumer by knob name, for the CLI and knob-precedence tests.
"""

from __future__ import annotations

from repro.serving.service import ServiceConfig
from repro.serving.state import DEFAULT_CAPACITY, SessionStore


def consumer_default(name: str) -> object:
    """The default of one knob, read from the class that consumes it."""
    if name == "capacity":
        return DEFAULT_CAPACITY
    return getattr(ServiceConfig, name)


def build_consumer(name: str, value: object) -> object:
    """Hand ``value`` to the knob's consumer, which validates it."""
    if name == "capacity":
        return SessionStore(10, 2, capacity=value)
    return ServiceConfig(**{name: value})


def flag(name: str) -> str:
    """The command-line flag that sets knob ``name``."""
    return "--" + name.replace("_", "-")
