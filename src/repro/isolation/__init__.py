"""ECU-internal isolation: hypervisor / TrustZone / MPU boundaries (Sec. III)."""
