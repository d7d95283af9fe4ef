"""Bus medium and discrete bit-level simulation engine."""
