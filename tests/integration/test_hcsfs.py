"""The heterogeneous file system over the HNS."""

import pytest

from repro.core import HNSName, NsmStub
from repro.core.nsms import BindFileServiceNSM, ClearinghouseFileServiceNSM
from repro.hcsfs import FILE_PROGRAM, FileServer, FileServerError, HcsFileSystem
from repro.hrpc import HrpcRuntime
from repro.workloads import build_testbed

SRC_VOLUME = HNSName("BIND-cs", "src.projects.cs.washington.edu")
DOCS_VOLUME = HNSName("CH-hcs", "docs:hcs:uw")


def run(env, gen):
    return env.run(until=env.process(gen))


@pytest.fixture
def fs_world():
    """Testbed + file servers on fiji (UNIX) and dlion (Xerox) + client."""
    testbed = build_testbed(seed=66)

    # fiji exports /projects/src; its portmapper already maps hcsfile to
    # 9999, where build_testbed bound a toy program — move the real file
    # server in at a fresh port and re-register.
    fiji_fs = FileServer(testbed.fiji, volumes=["/projects/src"], port=9600)
    testbed.fiji.service_at(111).register_local(FILE_PROGRAM, 9600)
    fiji_fs.put_direct("/projects/src", "hns/findnsm.c", b"/* six mappings */")

    # dlion exports /docs via Courier.
    dlion_fs = FileServer(testbed.dlion, volumes=["/docs"], port=9601)
    testbed.dlion.service_at(5002).advertise_local(FILE_PROGRAM, 9601)
    dlion_fs.put_direct("/docs", "sosp87.ms", b".TL\nA Name Service...\n")

    hns = testbed.make_hns(testbed.client)
    stub = NsmStub(testbed.client)
    for nsm in (
        testbed.make_nsm(BindFileServiceNSM, testbed.client),
        testbed.make_nsm(ClearinghouseFileServiceNSM, testbed.client),
    ):
        hns.link_local_nsm(nsm)
        stub.link_local(nsm)
    runtime = HrpcRuntime(testbed.client, testbed.internet)
    fs = HcsFileSystem(testbed.client, hns, stub, runtime)
    return testbed, fs, fiji_fs, dlion_fs


def test_fetch_from_unix_volume(fs_world):
    testbed, fs, fiji_fs, dlion_fs = fs_world
    data = run(testbed.env, fs.fetch(SRC_VOLUME, "hns/findnsm.c"))
    assert data == b"/* six mappings */"


def test_fetch_from_xerox_volume(fs_world):
    testbed, fs, fiji_fs, dlion_fs = fs_world
    data = run(testbed.env, fs.fetch(DOCS_VOLUME, "sosp87.ms"))
    assert data.startswith(b".TL")


def test_store_and_listdir(fs_world):
    testbed, fs, fiji_fs, dlion_fs = fs_world
    env = testbed.env
    stored = run(env, fs.store(SRC_VOLUME, "hns/cache.c", b"/* ttl */"))
    assert stored == 9
    names = run(env, fs.listdir(SRC_VOLUME, prefix="hns/"))
    assert names == ["hns/cache.c", "hns/findnsm.c"]
    assert fiji_fs.files_in("/projects/src")["hns/cache.c"] == b"/* ttl */"


def test_cross_system_copy(fs_world):
    """Fetch from the Xerox file system, store into the UNIX one."""
    testbed, fs, fiji_fs, dlion_fs = fs_world
    stored = run(
        testbed.env,
        fs.copy(DOCS_VOLUME, "sosp87.ms", SRC_VOLUME, "papers/sosp87.ms"),
    )
    assert stored > 0
    assert (
        fiji_fs.files_in("/projects/src")["papers/sosp87.ms"]
        == dlion_fs.files_in("/docs")["sosp87.ms"]
    )


def test_remove(fs_world):
    testbed, fs, fiji_fs, dlion_fs = fs_world
    env = testbed.env
    run(env, fs.store(SRC_VOLUME, "tmp.o", b"x"))
    run(env, fs.remove(SRC_VOLUME, "tmp.o"))
    assert "tmp.o" not in fiji_fs.files_in("/projects/src")

    def scenario():
        with pytest.raises(FileServerError):
            yield from fs.fetch(SRC_VOLUME, "tmp.o")
        return "done"

    assert run(env, scenario()) == "done"


def test_binding_cache_avoids_repeat_resolution(fs_world):
    testbed, fs, fiji_fs, dlion_fs = fs_world
    env = testbed.env
    run(env, fs.fetch(SRC_VOLUME, "hns/findnsm.c"))
    before = env.stats.counters().get("hns.find_nsm", 0)
    run(env, fs.fetch(SRC_VOLUME, "hns/findnsm.c"))
    after = env.stats.counters().get("hns.find_nsm", 0)
    assert after == before  # served from the volume-binding cache
    fs.invalidate(SRC_VOLUME)
    run(env, fs.fetch(SRC_VOLUME, "hns/findnsm.c"))
    assert env.stats.counters()["hns.find_nsm"] == after + 1


def test_unknown_volume_surfaces(fs_world):
    testbed, fs, fiji_fs, dlion_fs = fs_world
    from repro.bind import NameNotFound

    def scenario():
        with pytest.raises(NameNotFound):
            yield from fs.fetch(
                HNSName("BIND-cs", "nothing.cs.washington.edu"), "x"
            )
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_fileserver_validation(fs_world):
    testbed, fs, fiji_fs, dlion_fs = fs_world
    with pytest.raises(ValueError):
        fiji_fs.create_volume("")
    with pytest.raises(FileServerError):
        fiji_fs.files_in("/nope")
    fiji_fs.create_volume("/extra")
    assert fiji_fs.files_in("/extra") == {}


def test_large_files_cost_more(fs_world):
    testbed, fs, fiji_fs, dlion_fs = fs_world
    env = testbed.env
    fiji_fs.put_direct("/projects/src", "small", b"x" * 100)
    fiji_fs.put_direct("/projects/src", "large", b"x" * 100_000)
    run(env, fs.fetch(SRC_VOLUME, "small"))  # warm binding cache
    start = env.now
    run(env, fs.fetch(SRC_VOLUME, "small"))
    small_ms = env.now - start
    start = env.now
    run(env, fs.fetch(SRC_VOLUME, "large"))
    large_ms = env.now - start
    assert large_ms > 2 * small_ms
