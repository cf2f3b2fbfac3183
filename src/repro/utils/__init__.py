"""Shared utilities: seeded RNG streams, stable math, containers, reporting."""
