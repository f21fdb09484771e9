"""Frozen reference implementations the equivalence suites compare against.

Each module here is a verbatim copy of a production kernel as it stood
before its rewrite: the FM pass engine (:mod:`._seed_engine`), matching
and contraction (:mod:`._seed_coarsen`) and the evaluation bootstrap
(:mod:`._seed_eval`).  :mod:`.seed_ml` assembles the first two into a
multilevel driver.  The production code never imports them.
"""
