"""Configuration schedules: which configuration is in force when.

Reconfiguration (§5.1) activates a new configuration at sequence number
``s + 2P + 1`` where ``s`` is the batch containing the final ``vote``
transaction.  Replicas, clients, and auditors all need to answer "which
configuration prepared the batch at sequence number s / the entry at
ledger index i?"; a :class:`ConfigSchedule` is the ordered list of
configuration spans answering that question.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import codec
from ..errors import GovernanceError
from .configuration import Configuration


@dataclass(frozen=True)
class ConfigSpan:
    """One configuration and the point at which it took effect.

    ``start_seqno`` is the first batch sequence number prepared by this
    configuration; ``start_index`` is the first ledger index written under
    it.  Genesis has ``start_seqno=1`` (batches are numbered from 1) and
    ``start_index=0``.
    """

    config: Configuration
    start_seqno: int
    start_index: int

    @staticmethod
    def activated(config: Configuration, vote_seqno: int, vote_index: int, pipeline: int) -> "ConfigSpan":
        """The span a passed referendum opens (§5.1), from the batch
        ``vote_seqno`` and logical ledger index ``vote_index`` of its final
        vote: ``config`` prepares from ``vote_seqno + 2P + 1``, and indices
        are its from the one after the final vote.  The end-of-configuration
        batches in between carry no transaction, so this boundary is the
        activation's for every transaction, and a party holding only the
        governance receipts computes the span its executing peers do."""
        return ConfigSpan(config, vote_seqno + 2 * pipeline + 1, vote_index + 1)

    def to_wire(self) -> tuple:
        return (self.config.to_wire(), self.start_seqno, self.start_index)

    @staticmethod
    def from_wire(raw: tuple) -> "ConfigSpan":
        return codec.parse(
            raw, None, 3, GovernanceError,
            lambda config, start_seqno, start_index: ConfigSpan(
                Configuration.from_wire(config), start_seqno, start_index),
        )


class ConfigSchedule:
    """An ordered sequence of configuration spans.

    Spans are appended as reconfigurations complete; lookups by sequence
    number or ledger index return the configuration in force at that
    point.  The schedule enforces that configuration numbers increase by
    one and activation points are strictly increasing.
    """

    def __init__(self, spans: list[ConfigSpan] | None = None) -> None:
        self._spans: list[ConfigSpan] = []
        for span in spans or []:
            self.append(span)

    @staticmethod
    def genesis(config: Configuration) -> "ConfigSchedule":
        """A schedule holding only the genesis configuration."""
        if config.number != 0:
            raise GovernanceError(f"genesis configuration must be number 0, got {config.number}")
        return ConfigSchedule([ConfigSpan(config=config, start_seqno=1, start_index=0)])

    # -- mutation -----------------------------------------------------------

    def append(self, span: ConfigSpan) -> None:
        """Record a new configuration taking effect."""
        if self._spans:
            last = self._spans[-1]
            if span.config.number != last.config.number + 1:
                raise GovernanceError(
                    f"configuration {span.config.number} does not follow {last.config.number}"
                )
            if span.start_seqno <= last.start_seqno:
                raise GovernanceError(
                    f"activation seqno {span.start_seqno} not after {last.start_seqno}"
                )
        self._spans.append(span)

    def pop(self) -> ConfigSpan:
        """Undo the newest activation (a view change rolled its batch back)."""
        return self._spans.pop()

    # -- lookups --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def __eq__(self, other: object) -> bool:
        """Schedules are equal when their spans are: a schedule read back
        from its wire form equals the one written."""
        if not isinstance(other, ConfigSchedule):
            return NotImplemented
        return self._spans == other._spans

    __hash__ = None  # a schedule grows and shrinks: it is no dict key

    def spans(self) -> list[ConfigSpan]:
        return list(self._spans)

    def current(self) -> Configuration:
        """The most recent configuration."""
        if not self._spans:
            raise GovernanceError("empty configuration schedule")
        return self._spans[-1].config

    def current_span(self) -> ConfigSpan:
        if not self._spans:
            raise GovernanceError("empty configuration schedule")
        return self._spans[-1]

    def config_at_seqno(self, seqno: int) -> Configuration:
        """The configuration that prepares the batch at ``seqno``."""
        return self.span_at_seqno(seqno).config

    def span_at_seqno(self, seqno: int) -> ConfigSpan:
        if not self._spans:
            raise GovernanceError("empty configuration schedule")
        chosen = self._spans[0]
        for span in self._spans:
            if span.start_seqno <= seqno:
                chosen = span
            else:
                break
        return chosen

    def config_at_index(self, index: int) -> Configuration:
        """The configuration in force at ledger index ``index``."""
        if not self._spans:
            raise GovernanceError("empty configuration schedule")
        chosen = self._spans[0]
        for span in self._spans:
            if span.start_index <= index:
                chosen = span
            else:
                break
        return chosen.config

    def config_number(self, number: int) -> Configuration:
        """The configuration with the given configuration number."""
        for span in self._spans:
            if span.config.number == number:
                return span.config
        raise GovernanceError(f"no configuration number {number} in schedule")

    # -- serialization ----------------------------------------------------------

    def to_wire(self) -> tuple:
        return tuple(span.to_wire() for span in self._spans)

    @staticmethod
    def from_wire(raw: tuple) -> "ConfigSchedule":
        return codec.parse(
            raw, None, None, GovernanceError,
            lambda *spans: ConfigSchedule([ConfigSpan.from_wire(s) for s in spans]),
        )

    def copy(self) -> "ConfigSchedule":
        clone = ConfigSchedule()
        clone._spans = list(self._spans)
        return clone
