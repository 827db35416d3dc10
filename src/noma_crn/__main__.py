"""``python -m noma_crn``: the same command line as ``noma-crn``."""

from .cli import entrypoint

entrypoint()
