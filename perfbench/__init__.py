"""A benchmark of the data-currency library: see ``run.py``."""
