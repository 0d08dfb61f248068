"""Fixture: the legal seam idioms — module-level callables, partial over a
module-level callable, backend resolved by name (expect clean)."""

from functools import partial


def _kernel(graph, scale=1):
    return graph


def drive(backend, graphs):
    return backend.map_graphs(_kernel, graphs)


def drive_partial(backend, graphs):
    return backend.map_graphs(partial(_kernel, scale=2), graphs)


def drive_resident(session, fn, tasks):
    return session.run(fn, tasks)
