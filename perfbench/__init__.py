"""The repository benchmark: workloads, layer tracing and checks (see README.md)."""
