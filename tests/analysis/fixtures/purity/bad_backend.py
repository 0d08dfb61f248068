"""Fixture: hard-wiring a concrete backend inside a kernel (expect
backend-concrete x1 outside the registry modules, clean inside them)."""


def kernel(token, payloads, states):
    from repro.parallel.backends import NumpyBackend

    backend = NumpyBackend()
    return backend.map_partitions_resident(token, payloads, states)
