"""Threat-model implementations: DoS, spoofing, masquerade, toggling."""
