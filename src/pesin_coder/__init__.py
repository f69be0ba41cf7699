"""Symbolic dynamics for planar billiard maps at desk scale.

From billiard orbits to Pesin charts, graph-transform invariant manifolds, a
coarse-grained double-chart alphabet, and shadowing-based coding of orbit
windows.
"""

__version__ = "0.1.0"
