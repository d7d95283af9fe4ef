"""Vehicle-level feature models for the on-vehicle experiment (Sec. V-F)."""
