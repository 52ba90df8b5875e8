"""Discrete-event simulation: scenarios, kernel, and run statistics."""
