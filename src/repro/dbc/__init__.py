"""OpenDBC-like communication-matrix substrate."""
