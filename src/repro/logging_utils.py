"""Logging helpers.

The library logs through the standard :mod:`logging` module under the
``"repro"`` namespace and never configures the root logger — applications
stay in control of handlers and levels. :func:`enable_console_logging` is
a convenience for scripts and the CLI.
"""

from __future__ import annotations

import logging
from typing import Optional, Union


def coerce_level(level: Union[int, str]) -> int:
    """Resolve a logging level given as int or name ("info", "DEBUG", …).

    This is the parser behind every ``--log-level`` CLI flag; unknown
    names raise :class:`ValueError` so argparse reports them cleanly.
    """
    if isinstance(level, int):
        return level
    resolved = logging.getLevelName(str(level).upper())
    if not isinstance(resolved, int):
        raise ValueError(f"unknown log level {level!r}")
    return resolved


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """Return a logger under the ``repro`` namespace.

    ``get_logger("models.tsppr")`` yields the ``repro.models.tsppr``
    logger; ``get_logger()`` yields the package root logger.
    """
    if name is None:
        return logging.getLogger("repro")
    if name.startswith("repro"):
        return logging.getLogger(name)
    return logging.getLogger(f"repro.{name}")


def enable_console_logging(
    level: Union[int, str] = logging.INFO
) -> logging.Logger:
    """Attach a single stream handler to the package logger (idempotent).

    ``level`` may be an int or a level name (see :func:`coerce_level`).
    """
    logger = get_logger()
    logger.setLevel(coerce_level(level))
    if not any(isinstance(h, logging.StreamHandler) for h in logger.handlers):
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s: %(message)s")
        )
        logger.addHandler(handler)
    return logger

