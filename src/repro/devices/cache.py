"""Two-level memory model constants: effective bandwidth and x-vector
locality.

The paper's CPU story (Fig 3) is driven entirely by whether the working set
fits the LLC; its GPU irregularity story (Fig 6) by whether scattered ``x``
gathers waste memory transactions.  The record scorer
(:func:`repro.perfmodel.batch._score_grid`) models both:

* effective bandwidth — harmonic blend of LLC and DRAM bandwidth by the
  fraction of the working set the cache can hold, which produces the sharp
  performance "cutoff" past the LLC size;
* x-gather locality — an ``x`` access misses only if the vector does not
  fit its LLC budget, the access is not adjacent to the previous one in
  the row (spatial: adjacent columns share a line) and it does not
  re-touch a line the previous row loaded (temporal).  Each residual
  miss pulls a full cache line; on GPUs every scattered lane also pulls
  an L2 sector.
"""

__all__ = ["CACHE_LINE_BYTES", "GPU_SECTOR_BYTES", "X_CACHE_FRACTION"]

CACHE_LINE_BYTES = 64
# Fraction of the LLC realistically available to x (the rest streams the
# matrix through).
X_CACHE_FRACTION = 0.5
GPU_SECTOR_BYTES = 32  # L2 sector granularity of an uncoalesced lane
