"""Fixture: nested functions crossing the seam, directly and through partial
(expect pickle-callable x2)."""

from functools import partial


def driver(session, tasks):
    def kernel(payload, state, delta):
        return delta

    return session.run(kernel, tasks)


def resident(session, tasks):
    def fn(state):
        return state

    return session.run(partial(fn, 1), tasks)
