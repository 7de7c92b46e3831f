"""The repository benchmark: Rapid workloads measured from outside.

See ``rapidbench/README.md`` for the workloads, the metrics and how to run
it; ``python3 rapidbench/run.py --help`` for the command line.
"""
