"""The logging facade: the shared handler's format and private stream loggers."""

from __future__ import annotations

import io

from repro.telemetry.logs import configure, get_logger, stream_logger


def test_configure_attaches_the_shared_handler_once():
    root = get_logger()
    saved = (list(root.handlers), root.level, root.propagate)
    first, second = io.StringIO(), io.StringIO()
    try:
        configure(stream=first, force=True)
        get_logger("x").info("hello")
        configure(stream=second)  # already configured: changes nothing
        get_logger("x").info("again")
    finally:
        root.handlers[:] = saved[0]
        root.setLevel(saved[1])
        root.propagate = saved[2]
    lines = first.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].endswith(" INFO repro.x hello")
    assert lines[1].endswith(" INFO repro.x again")
    assert second.getvalue() == ""


def test_stream_loggers_write_plain_lines_each_to_its_own_stream():
    first, second = io.StringIO(), io.StringIO()
    stream_logger(first).info("one")
    stream_logger(second).warning("two")
    assert first.getvalue() == "one\n"
    assert second.getvalue() == "two\n"
