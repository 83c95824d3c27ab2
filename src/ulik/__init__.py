"""ulik: uplink inter-cell interference lognormal approximation kit.

Analytic approximation of the uplink interference distribution of an FDMA
small cell network, a Berry-Esseen certificate for the per-interferer
Gaussian step, and a Monte Carlo simulator to validate both.
"""

__version__ = "0.1.0"
