"""Risk-limiting post-election audit engine.

Quantifies the discrepancy between machine counts and hand tallies via the
maximum relative overstatement of pairwise margins (MRO), and computes
conservative P-values for the hypothesis that a full hand count would
reverse the apparent outcome.

Each public name is imported from its home module (``mro_audit.core``,
``mro_audit.risk``, ...); ``import mro_audit`` loads none of them.
"""

__version__ = "0.1.0"
