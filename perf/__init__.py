"""The pipeline benchmark (see README.md); ``python3 perf/run.py`` runs it."""
