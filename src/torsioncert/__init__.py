"""Certificates for homology-product sutured handlebodies, twisted torsion
polynomials of knot-group presentations, and the character-variety loci
where certification fails.

The layers, bottom up, each importing only those below it: errors and
seeds, scalar (exact rationals, quadratic extensions, tolerance-aware
complex floats), freegroup (reduced words, group rings, Fox calculus),
linalg (exact and floating determinants/ranks), polynomial (Laurent and
multivariate), representation (matrix representations of free groups,
symmetric powers, parabolic solving), twisted (presentation complexes and
Wada torsion), suturedcert (the product certificate), charvar (SL2
character variety, lifts, failure loci), cli.
"""

__version__ = "0.1.0"
