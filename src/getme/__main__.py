"""`python -m getme`: the command-line driver of `getme.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
