"""Run the command-line front end as ``python -m quotamaj``."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
