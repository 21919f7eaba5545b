"""End-to-end and per-layer benchmark for the ``repro`` library.

Run from the repository root::

    python3 perfbench/run.py --workload knn-paged --seed 1 --seconds 12 --trace 0

The package treats ``repro`` as a library: inputs come from
:mod:`perfbench.inputs`, timing and checking live in
:mod:`perfbench.workloads`, and the traced run's per-layer spans are
recorded by :mod:`perfbench.layers`, which wraps public functions from
the outside and restores them afterwards.  See ``perfbench/NOTES.md``.
"""
