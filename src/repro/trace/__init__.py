"""Trace analysis: logic-analyzer substitute and frame-level logs."""
