"""CAN 2.0A data-link substrate: frames, CRC-15, bit stuffing, error types."""
