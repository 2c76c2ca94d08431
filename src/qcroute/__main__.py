"""``python -m qcroute``: the same command line as the ``qcroute`` script."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
