"""The block size of batched random-variate streams.

:class:`~repro.rng.VariateStream` pre-draws variates in blocks of this
size.  The constant lives apart from :mod:`repro.rng`, which needs
NumPy, so the workload and distribution classes can name it as a default
argument and still load without NumPy.
"""

__all__ = ["DEFAULT_BLOCK_SIZE"]

#: Default number of variates pre-drawn per refill of a
#: :class:`~repro.rng.VariateStream`.
DEFAULT_BLOCK_SIZE = 1024
