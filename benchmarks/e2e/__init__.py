"""End-to-end continual-run benchmark (see README.md in this directory)."""
