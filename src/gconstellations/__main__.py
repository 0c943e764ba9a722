"""`python -m gconstellations` runs the `gcon` command line."""
from .cli import console_main
console_main()
