"""Calibrated component costs (all in simulated milliseconds).

Every constant here is fit to a measurement the paper itself reports;
the comments give the provenance.  The *structure* of the simulation
(how many lookups, remote calls, marshalling passes each design incurs)
is what reproduces the paper's tradeoffs; these constants only anchor
the axes to 1987 MicroVAX-II/Ethernet magnitudes.

Provenance summary
------------------
- Table 3.2 row "1 RR"/"6 RR": demarshalled cache hit 0.83/1.22 ms,
  marshalled hit 11.11/26.17 ms, miss 20.23/32.34 ms.  Fit exactly by
  ``cache_probe_ms`` + ``cache_copy_*`` + the generated-marshaller op
  costs (see :mod:`repro.serial.generated`), and within ±8 % for the
  miss row (the paper's own miss deltas are non-monotone in size, which
  no cost model with non-negative components can fit exactly).
- "a BIND name to address lookup takes 27 msec": conventional resolver
  against ``public_bind_lookup_ms`` with hand-coded marshalling.
- "a Clearinghouse name to address lookup takes 156 msec": per-access
  authentication (disk-resident credentials) plus disk-resident data.
- Table 3.1 row 1 (460/180/104 ms): emerges from 5 meta lookups + 1
  native lookup on a miss, ``hrpc_meta_call_ms`` per meta lookup, the
  NSM's native work on an NSM miss, and ``import_fixed_ms``.
- Table 3.1 rows 2-5: each non-colocated boundary adds one remote call
  over the ``sunrpc`` protocol suite, whose client and server control
  costs (20.5 + 20.5 ms, :mod:`repro.hrpc.suites`) are not constants
  here (the table's own single-call deltas are 43-57 ms).
- "The actual preload cost was measured to be about 390 msec" for ~2 KB
  of meta information, via the BIND zone transfer mechanism.

``repro.harness.report``'s calibration section shows which paper rows
each constant moves; ``UNCONSTRAINED`` there names the constants that
move none, and where each acts instead.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Calibration:
    """One coherent set of cost constants; override fields for ablations."""

    # ------------------------------------------------------------------
    # Network (one Ethernet segment, light load)
    # ------------------------------------------------------------------
    #: propagation + protocol-stack cost per message
    wire_base_ms: float = 1.0
    #: 10 Mbit/s-ish transfer cost
    wire_per_byte_ms: float = 0.0008

    # ------------------------------------------------------------------
    # BIND servers
    # ------------------------------------------------------------------
    #: the modified meta-BIND: small in-memory zone, dedicated server
    meta_bind_lookup_ms: float = 4.8
    #: the public BIND serving real naming data (fit: 27 ms end-to-end
    #: conventional lookup = request marshal 0.46 + wire ~2.1 + this +
    #: server response marshal 0.65 + client demarshal 0.65)
    public_bind_lookup_ms: float = 23.12
    #: server-side cost per record streamed during a zone transfer
    xfer_per_record_ms: float = 6.0
    #: fixed server cost to start a zone transfer
    xfer_setup_ms: float = 20.0
    #: client-side cost to install one transferred record in the cache
    #: (demarshal through the generated path + insert)
    xfer_install_per_record_ms: float = 9.7

    # ------------------------------------------------------------------
    # Clearinghouse (fit: 156 ms end-to-end lookup; "each access is
    # authenticated, and virtually all data is retrieved from disk")
    # ------------------------------------------------------------------
    #: CPU cost of verifying credentials
    ch_auth_cpu_ms: float = 38.0
    #: disk access for the credential database
    ch_auth_disk_ms: float = 30.0
    #: disk access for the property data itself
    ch_data_disk_ms: float = 30.0
    #: server-side request processing
    ch_process_ms: float = 52.0

    # ------------------------------------------------------------------
    # Resolver cache (Table 3.2, fit exactly)
    # ------------------------------------------------------------------
    #: hash probe to find/miss an entry
    cache_probe_ms: float = 0.2
    #: copying a cached (demarshalled) result into caller structures
    cache_copy_base_ms: float = 0.552
    cache_copy_per_record_ms: float = 0.078
    #: inserting a new entry after a miss
    cache_insert_ms: float = 0.5

    # ------------------------------------------------------------------
    # HRPC call overheads (beyond marshalling and wire time)
    # ------------------------------------------------------------------
    #: the HNS library's Raw-HRPC call to the meta-BIND server: control
    #: protocol + dispatch, per call (the paper estimates C(remote call)
    #: at 33 ms; each meta mapping "involves a remote call").  Equals
    #: the "raw" protocol suite's client+server control CPU.
    hrpc_meta_call_ms: float = 32.16

    # ------------------------------------------------------------------
    # HNS internals
    # ------------------------------------------------------------------
    #: FindNSM bookkeeping outside the six mappings
    hns_fixed_ms: float = 2.0

    # ------------------------------------------------------------------
    # NSM work (HRPC-binding query class)
    # ------------------------------------------------------------------
    #: translating the individual name to the local name
    nsm_translate_ms: float = 1.2
    #: Sun portmapper exchange: wire + server + marshalling, per exchange
    portmapper_server_ms: float = 8.0
    #: number of binding-protocol exchanges (getport + liveness check)
    portmapper_exchanges: int = 2
    #: Courier binding agent exchange cost (slower; Courier runs on the
    #: Xerox D-machines)
    courier_binder_server_ms: float = 14.0
    #: assembling/standardising the returned Binding structure
    nsm_standardize_ms: float = 30.1
    #: NSM-side cached-binding revalidation (NSM cache hit)
    nsm_cache_hit_extra_ms: float = 2.17

    # ------------------------------------------------------------------
    # HRPC import machinery (fit: Table 3.1 row 1 column C = 104 ms)
    # ------------------------------------------------------------------
    #: fixed cost of Import: component selection, stub setup, final
    #: marshalling of the Binding back to the caller
    import_fixed_ms: float = 94.0

    # ------------------------------------------------------------------
    # Baselines
    # ------------------------------------------------------------------
    #: interim scheme: parsing the replicated local binding file
    #: ("Binding using this scheme took 200 msec." = import machinery
    #: 94 + the host's disk read ~32 + this parse/validate cost + glue 10)
    localfile_parse_ms: float = 63.9
    #: reregistration-into-Clearinghouse scheme glue
    #: ("we found that binding took 166 msec")
    rereg_glue_ms: float = 10.0

    # ------------------------------------------------------------------
    # Meta records
    # ------------------------------------------------------------------
    #: TTL applied to meta records and Clearinghouse NSM answers (ms);
    #: "data changes slowly over time"
    meta_ttl_ms: float = 3_600_000.0


#: The calibration used by all benchmarks unless overridden.
DEFAULT_CALIBRATION = Calibration()
