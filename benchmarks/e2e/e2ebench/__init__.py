"""The end-to-end benchmark harness (see ``benchmarks/e2e/README.md``).

``fabric``    — the one fabric recipe, the dict oracle, the canaries.
``workloads`` — the four seeded op streams.
``harness``   — closed-loop runner, percentile rule, end-to-end metrics.
``trace``     — outside-in span recorder and the per-layer metrics.
"""
