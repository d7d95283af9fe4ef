"""MichiCAN core: configuration, detection FSM, firmware, defense node."""
