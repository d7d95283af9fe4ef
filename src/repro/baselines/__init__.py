"""Comparison baselines: Parrot, a frequency IDS, and the Table I matrix."""
