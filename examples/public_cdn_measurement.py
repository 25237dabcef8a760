#!/usr/bin/env python
"""The §2 measurement study: dig five CDN domains over three networks.

Re-runs the paper's Table 1 / Figure 2 / Figure 3 methodology on the
modelled public Internet: the same device location, three access paths
(campus Ethernet, home Wi-Fi, cellular hotspot), 25 dig runs per domain
per network, 8th-92nd percentile trimming, and answer-IP-to-CIDR-pool
attribution.

Run:  python examples/public_cdn_measurement.py
"""

from repro.experiments import figure2, figure3, table1


def main() -> None:
    print(__doc__)
    print(table1.EXPERIMENT.run_serial().render())
    print()

    latency = figure2.EXPERIMENT.run_serial(trials=25, seed=1)
    print(latency.render())
    violations = figure2.EXPERIMENT.check_shape(latency)
    print(f"\nFigure 2 shape claims: "
          f"{'ALL HOLD' if not violations else violations}")
    print("  (cellular >> wifi > wired for every domain, with the "
          "cellular bars also the most variable)\n")

    answers = figure3.EXPERIMENT.run_serial(trials=40, seed=1)
    print(answers.render())
    violations = figure3.EXPERIMENT.check_shape(answers)
    print(f"Figure 3 shape claims: "
          f"{'ALL HOLD' if not violations else violations}")
    print("  (the same domain resolves into different provider pools "
          "depending on the access network — the opaqueness the paper "
          "argues DNS-for-MEC must eliminate)")


if __name__ == "__main__":
    main()
