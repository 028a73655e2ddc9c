"""Logging facade: one ``repro`` logger hierarchy over stdlib logging.

Every component that used to ``print`` to an ad-hoc stream now logs
through here.  Two modes:

* :func:`configure` — attach the shared stderr (or custom-stream)
  handler to the ``repro`` root logger, idempotently; library code then
  just calls :func:`get_logger` and logs.  Lines read
  ``<time> <LEVEL> <logger> <message>``.
* :func:`stream_logger` — a private, non-propagating logger bound to an
  explicit stream with a bare ``%(message)s`` format.  This is the
  test/CLI escape hatch :class:`~repro.store.progress.LogProgressReporter`
  keeps: handing it an ``io.StringIO`` captures exactly the lines it
  always emitted, no global logging state touched.
"""

from __future__ import annotations

import itertools
import logging
import sys
from typing import Optional, TextIO

__all__ = [
    "DEFAULT_FORMAT",
    "get_logger",
    "configure",
    "stream_logger",
]

#: The shared handler's format.
DEFAULT_FORMAT = "%(asctime)s %(levelname)s %(name)s %(message)s"

_ROOT_NAME = "repro"
_stream_ids = itertools.count(1)


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``get_logger("campaign")``)."""
    return logging.getLogger(f"{_ROOT_NAME}.{name}" if name else _ROOT_NAME)


def configure(
    *,
    stream: Optional[TextIO] = None,
    level: int = logging.INFO,
    fmt: str = DEFAULT_FORMAT,
    force: bool = False,
) -> logging.Logger:
    """Attach the shared handler to the ``repro`` root logger, once.

    Subsequent calls are no-ops unless ``force`` is set (which replaces
    the existing handlers — what tests use to re-point the stream).
    The root logger does not propagate, so embedding applications keep
    full control of their own logging tree.
    """
    root = get_logger()
    if root.handlers and not force:
        return root
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter(fmt))
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    return root


def stream_logger(
    stream: TextIO,
    *,
    level: int = logging.INFO,
    fmt: str = "%(message)s",
) -> logging.Logger:
    """A private logger writing plain lines to exactly ``stream``.

    Each call returns a fresh, uniquely named, non-propagating logger,
    so two reporters with two streams never interleave handlers.
    """
    logger = logging.getLogger(f"{_ROOT_NAME}._stream.{next(_stream_ids)}")
    logger.propagate = False
    logger.setLevel(level)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(fmt))
    logger.addHandler(handler)
    return logger
