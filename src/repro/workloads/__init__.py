"""Traffic workloads: synthetic vehicles, restbus replay, random populations."""
