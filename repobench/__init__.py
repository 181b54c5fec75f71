"""The repository benchmark: ``python3 repobench/run.py --help``."""
