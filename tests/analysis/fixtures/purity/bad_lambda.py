"""Fixture: lambdas crossing the seam (expect pickle-callable x2)."""


def go(session, tasks):
    return session.run(lambda payload, state, delta: delta, tasks)


def fan(backend, graphs):
    return backend.map_graphs(lambda g: g, graphs)
