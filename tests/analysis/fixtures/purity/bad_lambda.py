"""Fixture: lambdas crossing the seam (expect pickle-callable x2)."""


def go(session, tasks):
    return session.run(lambda payload, state, delta: delta, tasks)


def fan(session, tasks):
    return session.run(lambda payload, state, delta: state, tasks)
