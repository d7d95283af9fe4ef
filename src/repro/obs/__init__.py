"""Observability: metrics primitives, bus probes, snapshots, exporters.

The paper's evaluation is a set of derived time-series metrics over
bit-level protocol activity (bus-off times, detection latency, bus load,
CPU cost).  This package makes that a first-class layer instead of ad-hoc
rescans of ``sim.events``:

* :mod:`repro.obs.metrics` — counters / gauges / histograms behind a
  near-zero-overhead :class:`~repro.obs.metrics.MetricsRegistry`;
* :mod:`repro.obs.probe` — :class:`~repro.obs.probe.BusProbe`, a live
  subscriber on the simulator event stream maintaining per-node protocol
  metrics, summarized into a :class:`~repro.obs.probe.MetricsSummary`;
* :mod:`repro.obs.snapshot` — a periodic snapshotter sampling every N
  simulated bits into a schema-versioned JSONL timeline;
* :mod:`repro.obs.export` — Prometheus-style text exposition and JSONL;
* :mod:`repro.obs.profiler` — wall-clock per-phase timing of the engine's
  output / drive / observe cycle;
* :mod:`repro.obs.tracing` — causal per-frame lifecycle spans, exported
  as JSONL or Chrome ``trace_event`` JSON (Perfetto-loadable);
* :mod:`repro.obs.flight` — a crash flight recorder keeping a bounded
  ring of recent events and node state for post-mortem dumps.
"""
