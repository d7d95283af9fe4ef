"""Reusable experiment drivers for the paper's evaluation section."""
