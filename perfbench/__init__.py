"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload with::

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs one untraced and one traced pass of the same inputs and
reports where host time went, layer by layer (see :mod:`perfbench.tracing`).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give the same numbers for a human, plus the simulated-statistics digest.

Modules:

* :mod:`perfbench.inputs` — seeded inputs built through the public
  generators (the default seed reproduces ``suite()`` and ``SOUP_SEEDS``);
* :mod:`perfbench.workloads` — the four workloads, their measured passes and
  their correctness checks;
* :mod:`perfbench.tracing` — spans recorded by class-level wrappers around
  public methods, and the per-layer metrics derived from them;
* :mod:`perfbench.run` — the command line.
"""
