"""Whole-repository benchmark: three closed-loop workloads over the
trusted-cell stack, with an outside-in per-layer trace.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; ``perfbench/README.md`` documents
the workloads, the metrics and how each layer metric relates to an
end-to-end one.
"""
