"""``python -m iondec``: cli.run, the entry point of the ``iondec`` script
too; cli's module docstring says how it ends the process."""
from .cli import run

if __name__ == "__main__":
    run()
