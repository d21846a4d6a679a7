"""Exact construction of the compact E8 Lie algebra from Spin(16).

Builds the sixteen real 128x128 gamma blocks of the Majorana-Weyl
representation, assembles the 248-dimensional algebra and its adjoint
representation in exact half-integer arithmetic, verifies every defining
relation, extracts the 240 roots with simple roots, Cartan matrix, highest
root and marks, and realizes a generalized Euler chart of the group with
its fundamental-domain torus inequalities.
"""

__version__ = "0.1.0"

FORMAT_VERSION = "1"
