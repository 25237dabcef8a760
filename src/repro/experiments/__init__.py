"""Paper artifact regeneration: one module per table/figure.

| Module                          | Paper artifact                       |
|---------------------------------|--------------------------------------|
| :mod:`repro.experiments.table1` | Table 1 (sites and CDN domains)      |
| :mod:`repro.experiments.table2` | Table 2 (entities and roles)         |
| :mod:`repro.experiments.figure2`| Figure 2 (lookup latency by network) |
| :mod:`repro.experiments.figure3`| Figure 3 (answer distribution)       |
| :mod:`repro.experiments.figure5`| Figure 5 (six DNS deployments)       |
| :mod:`repro.experiments.ecs`    | §4 ECS sensitivity experiment        |
| :mod:`repro.experiments.resilience` | §3 fault-injection chaos grid    |

Each module defines one :class:`~repro.runtime.Experiment` as
``EXPERIMENT``; :func:`repro.experiments.registry.builtin_registry`
holds them all.  ``EXPERIMENT.run_serial(**overrides)`` returns a
structured result whose ``render()`` prints the paper-comparable
rows/series, and ``EXPERIMENT.check_shape(result)`` lists the violated
paper claims.
"""
