"""Performance benchmark of the repro engine (see README.md)."""
