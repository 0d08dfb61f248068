"""Fixture: nested functions crossing the seam, directly and through partial
(expect pickle-callable x2)."""

from functools import partial


def driver(backend, graphs):
    def kernel(graph):
        return graph

    return backend.map_graphs(kernel, graphs)


def resident(session, tasks):
    def fn(state):
        return state

    return session.run(partial(fn, 1), tasks)
