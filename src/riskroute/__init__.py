"""Risk-aware routing equilibria on single origin-destination networks.

The package solves risk-neutral and risk-averse Wardrop equilibria,
partitions edges by comparing the two flows, builds the alternating-path
certificate, and checks every bound that certificate supports, including
the price of risk aversion.
"""

__version__ = "0.1.0"
