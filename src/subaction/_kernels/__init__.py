"""The subset-fold kernel, implemented once in ``numpy_backend``.

``backend_name`` and ``get_backend`` name that implementation for benchmark
and trace records.
"""

from __future__ import annotations

from . import numpy_backend
from .numpy_backend import (MAX_N, SubsetFold, check_pair_ratio, exact_dtype,
                            words)


def backend_name() -> str:
    return numpy_backend.BACKEND_NAME


def get_backend(name: str):
    """The kernel module called ``name``; only ``"numpy"`` exists."""
    if name != "numpy":
        raise ImportError(f"no kernel backend named {name!r}")
    return numpy_backend
