"""Declarative fault injection: plans, injectors, and chaos sweeps."""
