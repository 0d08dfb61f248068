"""Fixture: the legal seam idioms — module-level callables, partial over a
module-level callable, backend resolved by name (expect clean)."""

from functools import partial


def _kernel(payload, state, delta, scale=1):
    return delta


def drive(session, tasks):
    return session.run(_kernel, tasks)


def drive_partial(session, tasks):
    return session.run(partial(_kernel, scale=2), tasks)


def drive_resident(session, fn, tasks):
    return session.run(fn, tasks)
