"""The pool server.

One :class:`PoolServer` owns several *backends*. Each backend maintains its
own block template (distinguished by its extra nonce) and refreshes it
periodically as new transactions arrive — which is why an observer polling
a single endpoint sees a handful of distinct PoW inputs per block (the
paper measured at most 8), and at most ``backends × 8`` across all
endpoints (128 for Coinhive's 16 backends).

The server exposes the miner-facing operations (``handle_login``,
``get_job``, ``handle_submit``) and chain-facing housekeeping
(``on_new_block``, ``refresh_templates``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.blockchain.chain import Blockchain, Mempool
from repro.faults.plan import FaultPlan
from repro.pool.jobs import BlockTemplate, Job, build_template
from repro.pool.payout import PayoutLedger
from repro.pool.protocol import JobMessage, SubmitResult, target_hex_for_difficulty
from repro.pool.shares import ShareLedger, ShareValidator, ShareVerdict


class PoolUnavailable(RuntimeError):
    """An injected endpoint outage: the backend refuses job requests.

    The reason string contains "unavailable" so legacy substring handling
    (and :func:`repro.faults.taxonomy.classify_reason`) files it under
    ``ErrorClass.POOL_OUTAGE``.
    """

    def __init__(self, endpoint_key: str) -> None:
        super().__init__(f"{endpoint_key} unavailable (injected outage)")
        self.endpoint_key = endpoint_key
        self.injected = True


@dataclass
class _Backend:
    """One template-producing backend of the pool."""

    index: int
    extra_nonce_prefix: bytes
    template: Optional[BlockTemplate] = None
    template_serial: int = 0
    templates_this_block: int = 0


@dataclass
class PoolServer:
    """A mining pool bound to a chain and a mempool.

    Parameters
    ----------
    name:
        Pool identifier (also used as its payout address).
    chain, mempool:
        The blockchain substrate the pool mines on.
    num_backends:
        Independent template producers (Coinhive: 16).
    share_difficulty:
        The lowered difficulty shares must meet.
    max_templates_per_block:
        Cap on template refreshes per chain height per backend — the
        paper's "never more than 8 PoW inputs" observation.
    blob_transform:
        Optional hook applied to outgoing job blobs; Coinhive installs its
        XOR obfuscation here (see :mod:`repro.coinhive.obfuscation`).
    """

    name: str
    chain: Blockchain
    mempool: Mempool = field(default_factory=Mempool)
    num_backends: int = 4
    share_difficulty: int = 16
    max_templates_per_block: int = 8
    fee_percent: int = 30
    blob_transform: Optional[Callable[[bytes], bytes]] = None
    #: injected outage windows (time-bucketed per backend); ``None`` = none
    fault_plan: Optional[FaultPlan] = None
    validator: ShareValidator = field(default=None)  # type: ignore[assignment]
    shares: ShareLedger = field(default_factory=ShareLedger)
    payouts: PayoutLedger = field(default=None)  # type: ignore[assignment]
    _backends: list = field(default_factory=list)
    _jobs: dict = field(default_factory=dict)
    _job_counter: int = 0
    _sessions: dict = field(default_factory=dict)
    _seen_shares: set = field(default_factory=set)
    blocks_mined: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.validator is None:
            self.validator = ShareValidator(pow_params=self.chain.pow_params)
        if self.payouts is None:
            self.payouts = PayoutLedger(pool_fee_percent=self.fee_percent)
        if not self._backends:
            self._backends = [
                _Backend(index=i, extra_nonce_prefix=f"{self.name}/be{i}/".encode())
                for i in range(self.num_backends)
            ]

    # -- template management ---------------------------------------------------

    def refresh_backend(self, backend_index: int, now: float) -> BlockTemplate:
        """Rebuild one backend's template against the current tip.

        Honors ``max_templates_per_block``: once a backend has produced the
        cap for the current height it keeps serving the last template.
        """
        backend = self._backends[backend_index]
        tip_height = self.chain.height + 1
        if backend.template is not None and backend.template.height == tip_height:
            if backend.templates_this_block >= self.max_templates_per_block:
                return backend.template
        else:
            backend.templates_this_block = 0
        backend.template_serial += 1
        extra_nonce = backend.extra_nonce_prefix + backend.template_serial.to_bytes(4, "little")
        backend.template = build_template(
            self.chain, self.name, extra_nonce, timestamp=now, mempool=self.mempool
        )
        backend.templates_this_block += 1
        return backend.template

    def refresh_templates(self, now: float) -> None:
        for i in range(self.num_backends):
            self.refresh_backend(i, now)

    def on_new_block(self, now: float) -> None:
        """Chain advanced (by us or a competitor): rebuild all templates."""
        for backend in self._backends:
            backend.templates_this_block = 0
        self.refresh_templates(now)

    # -- miner-facing API --------------------------------------------------------

    def handle_login(self, connection_id: str, token: str) -> None:
        if not token:
            raise ValueError("empty token")
        self._sessions[connection_id] = token

    def token_for(self, connection_id: str) -> str:
        try:
            return self._sessions[connection_id]
        except KeyError:
            raise KeyError(f"connection {connection_id!r} not logged in") from None

    def get_job(self, connection_id: str, backend_index: int, now: float) -> Job:
        """Issue a job from a backend's current template.

        Raises :class:`PoolUnavailable` while the fault plan has this
        backend inside an injected outage window.
        """
        self.token_for(connection_id)  # must be authenticated
        if self.fault_plan is not None and self.fault_plan.pool_endpoint_down(
            f"{self.name}/be{backend_index}", now
        ):
            raise PoolUnavailable(f"{self.name}/be{backend_index}")
        backend = self._backends[backend_index]
        if backend.template is None or backend.template.height != self.chain.height + 1:
            self.refresh_backend(backend_index, now)
        template = backend.template
        assert template is not None
        blob = template.blob()
        if self.blob_transform is not None:
            blob = self.blob_transform(blob)
        self._job_counter += 1
        job = Job(
            job_id=Job.make_id(blob, self._job_counter),
            blob=blob,
            share_difficulty=self.share_difficulty,
            template=template,
        )
        self._jobs[job.job_id] = job
        return job

    def job_message(self, job: Job) -> JobMessage:
        return JobMessage(
            job_id=job.job_id,
            blob_hex=job.blob.hex(),
            target_hex=target_hex_for_difficulty(job.share_difficulty),
        )

    def handle_submit(
        self, connection_id: str, job_id: str, nonce: int, now: float
    ) -> SubmitResult:
        """Validate a share; append a block to the chain when it qualifies."""
        token = self.token_for(connection_id)
        job = self._jobs.get(job_id)
        if job is None:
            return SubmitResult(False, reason="unknown job")
        # Validation happens on the *true* blob: undo any outgoing transform
        # by rebuilding from the template (the pool knows its own secret).
        true_job = Job(
            job_id=job.job_id,
            blob=job.template.blob(),
            share_difficulty=job.share_difficulty,
            template=job.template,
        )
        share_key = (true_job.blob, nonce)
        if share_key in self._seen_shares:
            return SubmitResult(False, reason="duplicate share")
        verdict: ShareVerdict = self.validator.validate(true_job, nonce)
        if not verdict.accepted:
            return SubmitResult(False, reason=verdict.reason)
        self._seen_shares.add(share_key)
        self.shares.record(token, job.share_difficulty, is_block=verdict.is_block)
        if verdict.is_block and job.template.height == self.chain.height + 1:
            block = job.template.to_block(nonce)
            self.chain.submit(block)
            self.blocks_mined.append(block)
            self.payouts.distribute_block(block.reward(), self.shares.snapshot_and_reset())
            self.on_new_block(now)
        return SubmitResult(True)
