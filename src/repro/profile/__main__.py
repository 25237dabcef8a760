"""``python -m repro.profile`` — standalone SLO evaluation.

Evaluates an ``.slo`` rule file against existing budget/metrics
artifacts without running a simulation, so a CI gate can run it on
uploaded artifacts alone.  The full ``repro profile`` harness lives
behind ``python -m repro.cli profile``.
"""

from repro.profile.runner import main

if __name__ == "__main__":
    raise SystemExit(main())
