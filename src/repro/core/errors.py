"""HNS failure modes."""


class HnsError(Exception):
    """Base class for HNS-level failures."""


class ContextNotFound(HnsError):
    """The context part of an HNS name is not registered."""


class NsmNotFound(HnsError):
    """No NSM registered for this (name service, query class) pair."""


class QueryClassUnsupported(HnsError):
    """The query class itself is unknown to the HNS."""
