"""The repository's benchmark: workloads, tracing and reporting."""
