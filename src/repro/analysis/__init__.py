"""Analysis utilities: metrics, energy model, WCET bounds and reporting."""
