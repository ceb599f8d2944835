"""Acceleration flag: every kernel in this package is plain numpy.

`perfbench/probes.py` reads USE_NUMBA for its environment record.
"""

USE_NUMBA = False
