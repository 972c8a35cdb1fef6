"""The layered performance ledger (see bench/README.md).

Everything here measures ``repro`` from outside: it times calls into
public functions, reads public result objects and the always-on metrics
registry, and never edits a file outside this directory.
"""
