"""Small helpers shared across the package."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def nogc() -> Iterator[None]:
    """Pause the cyclic garbage collector; the caller's setting comes back
    on exit, also on an exception.

    Building a reduction stage or folding a formula allocates millions of
    container objects and frees none of them through cycles, so collections
    during the build only walk every live stage again and again.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
