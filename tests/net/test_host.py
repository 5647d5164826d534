"""Host binding, liveness, ephemeral ports."""

import pytest

from repro.net import Endpoint, Host, NetworkAddress, PortInUse, Service
from repro.sim import Environment


class NullService(Service):
    def handle(self, datagram, responder):
        return
        yield


def make_host(env=None, **kwargs):
    env = env or Environment()
    return Host(env, "fiji", NetworkAddress("128.95.1.4"), **kwargs)


def test_host_defaults():
    host = make_host()
    assert host.is_up
    assert host.system_type == "unix"
    assert repr(host).startswith("<Host fiji")


def test_bind_and_lookup():
    host = make_host()
    svc = NullService()
    ep = host.bind(53, svc)
    assert ep.port == 53 and ep.address == host.address
    assert host.service_at(53) is svc
    assert host.service_at(54) is None


def test_double_bind_rejected():
    host = make_host()
    host.bind(53, NullService())
    with pytest.raises(PortInUse):
        host.bind(53, NullService())


def test_bind_requires_service_instance():
    host = make_host()
    with pytest.raises(TypeError):
        host.bind(53, object())  # type: ignore[arg-type]


def test_crash_and_restart_keep_services():
    host = make_host()
    host.bind(53, NullService())
    host.crash()
    assert not host.is_up
    host.restart()
    assert host.is_up
    assert host.service_at(53) is not None


def test_ephemeral_endpoints_unique_until_wrap():
    host = make_host()
    first = host.ephemeral_endpoint()
    second = host.ephemeral_endpoint()
    assert first.port != second.port
    assert first.address == host.address


def test_an_ephemeral_endpoint_equals_a_built_one_across_the_wrap():
    """Filled in place, an ephemeral endpoint is the dataclass value
    ``Endpoint(address, port)`` builds: equal, hash-equal, ordered the
    same, from the top of the range through the wrap to its bottom."""
    host = make_host()
    host._next_ephemeral = 65533
    ports = []
    for _ in range(6):
        endpoint = host.ephemeral_endpoint()
        built = Endpoint(host.address, endpoint.port)
        assert endpoint == built and hash(endpoint) == hash(built)
        assert not endpoint < built and not built < endpoint
        assert str(endpoint) == str(built) and repr(endpoint) == repr(built)
        assert type(endpoint) is Endpoint
        ports.append(endpoint.port)
    assert ports == [65533, 65534, 65535, 32768, 32769, 32770]
    assert len({host.ephemeral_endpoint() for _ in range(3)}) == 3


def test_endpoint_is_built_once_per_port():
    host = make_host()
    endpoint = host.endpoint(4000)
    assert endpoint == Endpoint(host.address, 4000)
    assert host.endpoint(4000) is endpoint
    assert host.bind(4000, NullService()) is endpoint
    assert host.endpoint(4001) == Endpoint(host.address, 4001) != endpoint
    with pytest.raises(ValueError):
        host.endpoint(0)

