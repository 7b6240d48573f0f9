"""The repository benchmark: workloads, span tracing and reports."""
