"""Benchmark for the retobf pipeline: workloads, checks and span tracing."""
