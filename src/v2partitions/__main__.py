"""`python -m v2partitions` runs the command-line front end."""

from .cli import entrypoint

entrypoint()
