"""Runtime toggle for the vectorized codec fast paths.

One switch gates the table-driven entropy coder in
:mod:`repro.codecs.fastpath`, the batched float32 pixel pipeline in
:mod:`repro.codecs.pixelpath`, and its forward twin
:mod:`repro.codecs.encodepath`.  It defaults to on; set the environment
variable ``REPRO_CODEC_FASTPATH=0`` (before import) to run the whole process
on the scalar reference implementations (per-symbol entropy loops, float64
per-stage pixel reconstruction), which are kept for differential testing.

:func:`use_fastpath` overrides the environment default for the calling
context only.  The override lives in a :class:`contextvars.ContextVar`, so a
thread decoding concurrently never observes another thread's override — and
a thread *started* inside a ``use_fastpath`` block begins from the
environment default, not from the override of the thread that started it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "1").lower() not in ("0", "false", "no", "off")


_FASTPATH: ContextVar[bool] = ContextVar(
    "repro_codec_fastpath", default=_env_flag("REPRO_CODEC_FASTPATH")
)


def fastpath_enabled() -> bool:
    """Return whether the fast path is enabled in the calling context."""
    return _FASTPATH.get()


@contextmanager
def use_fastpath(enabled: bool):
    """Force the fast path on or off for the calling context within a block."""
    token = _FASTPATH.set(bool(enabled))
    try:
        yield
    finally:
        _FASTPATH.reset(token)
