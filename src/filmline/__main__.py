"""``python -m filmline <verb>``: the command line, also from a checkout with
``src/`` on the import path and no installed package."""

from .cli import main

if __name__ == "__main__":
    main()
