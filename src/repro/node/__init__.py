"""CAN node substrate: controller, fault confinement, RX parser, scheduling."""
