"""Metrics, closed-form theory, and static analysis: bus load, bus-off
times, latency, CPU, the config verifier, the whole-program call graph,
the concurrency-safety analyzer, and the stuff-bit-aware FSM model
checker."""
