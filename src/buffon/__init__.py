"""Monte Carlo pi estimation by casting shapes onto a lined or tiled floor.

The classic baseline drops a needle on parallel lines; the main estimator
casts an equilateral triangle (side equal to the tile size) onto a square
tiling and counts grid-line crossings, giving pi ~= 12 * trials / crossings.
"""

__version__ = "0.1.0"
