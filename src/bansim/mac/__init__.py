"""MAC layer: superframe layout, access-phase rules, contention engine."""
