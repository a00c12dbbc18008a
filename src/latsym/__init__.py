"""Exact lattice computations for a rank-16 even lattice of signature (3, 13).

Submodules:

- intmat: exact integer matrix helpers (Bareiss and symmetric
  elimination, Smith form, kernels, signatures); Fractions only in the
  answers of frac_det and frac_inverse
- lattice: integral lattices, named constructions, the standard rank-16 model
- genus: p-adic Jordan constituents and canonical genus symbols
- discform: discriminant groups, torsion quadratic forms, finite isometry
  groups
- walls: short-vector enumeration and wall membership
- isometry: lattice isometries, spinor norm, symplectic classification
- fixtures: bundled reference tables
- cli: command line entry point
"""

__version__ = "0.1.0"
