"""Tests for repro.logging_utils."""

import logging

from repro.logging_utils import enable_console_logging, get_logger


class TestGetLogger:
    def test_default_is_package_root(self):
        assert get_logger().name == "repro"

    def test_name_is_namespaced(self):
        assert get_logger("models.tsppr").name == "repro.models.tsppr"

    def test_already_namespaced_untouched(self):
        assert get_logger("repro.data").name == "repro.data"


class TestEnableConsoleLogging:
    def test_idempotent_handler_attachment(self):
        logger = enable_console_logging()
        n_handlers = len(logger.handlers)
        enable_console_logging()
        assert len(logger.handlers) == n_handlers

    def test_sets_level(self):
        logger = enable_console_logging(logging.WARNING)
        assert logger.level == logging.WARNING
        enable_console_logging(logging.INFO)  # restore

