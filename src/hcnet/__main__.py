"""`python -m hcnet ...` runs the command-line interface."""

from .cli import entry

entry()
