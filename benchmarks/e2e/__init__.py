"""The end-to-end benchmark (see README.md).  A package so that its
modules import each other as ``e2e.*`` and ``trace.py`` never shadows the
standard library's ``trace``."""
