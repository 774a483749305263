"""Exit nonzero unless every OpenBLAS mapped into the process runs at one
thread inside ``voikit._blas.one_blas_thread()``.

Fits set each OpenBLAS to one thread through its exported thread
functions; a wheel that renames them must fail here, not leave the scope a
silent no-op.  Run from the repository root with ``PYTHONPATH=src``.
"""

import sys

from voikit import LinearGaussianSpec, ParamSubset, _blas, generate_psa, gp_fit_detail

gp_fit_detail(generate_psa(LinearGaussianSpec(), 500, seed=1), ParamSubset.of(0), 1)
mapped = _blas._mapped_openblas()
with _blas.one_blas_thread():
    counts = _blas._thread_counts()
print("OpenBLAS mapped:", sorted(mapped))
print("thread counts inside the scope:", counts)
sys.exit(not mapped or set(counts) != mapped or set(counts.values()) != {1})
