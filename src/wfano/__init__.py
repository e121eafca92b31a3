"""Exact arithmetic for the 95 families of anticanonically embedded
weighted hypersurface threefolds: enumeration, singular-point baskets,
blow-up towers with intersection theory, and Halphen pencil counts.

Import from the modules (`wfano.core`, `wfano.enumerator`, ...); the
package itself keeps only `load_families` and `__version__`.
"""
from .classifier import load_families

__version__ = "0.1.0"

__all__ = ["load_families", "__version__"]
