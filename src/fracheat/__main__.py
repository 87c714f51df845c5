"""python -m fracheat: the command-line interface."""

from .cli import main

main()
