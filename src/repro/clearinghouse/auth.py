"""Clearinghouse authentication.

Every Clearinghouse access carries credentials, and verifying them is
half of why lookups cost 156 ms: the credential database is itself
disk-resident.  The simulation charges CPU (digest check) plus a disk
access per verification.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing


def _digest(user: str, secret: str) -> bytes:
    return hashlib.sha256(f"{user}\x00{secret}".encode("utf-8")).digest()


@dataclasses.dataclass(frozen=True)
class Credentials:
    """What a client presents: an identity plus a shared secret."""

    user: str
    secret: str

    def proof(self) -> bytes:
        return _digest(self.user, self.secret)


class CredentialStore:
    """Server-side registry of identities and their secrets."""

    def __init__(self) -> None:
        self._proofs: typing.Dict[str, bytes] = {}

    def enroll(self, user: str, secret: str) -> None:
        if not user:
            raise ValueError("empty user name")
        self._proofs[user] = _digest(user, secret)

    def revoke(self, user: str) -> bool:
        return self._proofs.pop(user, None) is not None

    def verify(self, credentials: typing.Optional[Credentials]) -> bool:
        """Check credentials against the store (pure check, no costs)."""
        if credentials is None:
            return False
        expected = self._proofs.get(credentials.user)
        return expected is not None and expected == credentials.proof()
