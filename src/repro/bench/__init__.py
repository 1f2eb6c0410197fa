"""The repository's benchmark: end to end and per layer.

``python -m repro.bench`` runs four workloads — ``functional``,
``timing``, ``grid`` and ``serve`` — each in a fresh process, checks
every output (recorded digests, interpreter ground truth) and prints
every metric with its unit.  See ``README.md`` in this directory for the
workloads, metrics, bounds and how to read a traced run.
"""
