"""The client-side chain session: nonces, fees, bounded retry.

A :class:`ChainService` is what a wallet/SDK session keeps between the
application and a node provider.  It unifies, for every chain family:

- **nonce allocation** -- hands out client-side nonces and, crucially,
  *resyncs from chain-observed state when a submission is rejected*.
  (A naive client advances its local nonce at build time, so a rejected
  transaction would permanently desync the account.)
- **fee estimation** -- EIP-1559 on EVM chains (max fee = 2x current
  base fee + the profile's priority tip) vs. the flat protocol minimum
  on AVM chains.
- **bounded retry-on-rejection** -- a transiently dropped submission
  (:class:`~repro.chain.base.TransientChainError`) is resubmitted
  as-is; a permanently rejected one is rebuilt once per attempt with a
  resynced nonce and refreshed fees.  If the rebuilt transaction would
  be byte-identical to the rejected one the failure is permanent and
  re-raised immediately.
- **stuck-transaction recovery** -- with a
  :class:`~repro.faults.policy.RetryPolicy` attached, each submission
  returns a :class:`ManagedTxHandle` that watches the confirmation with
  a timeout + exponential backoff and resubmits a fee-bumped
  replacement (same nonce) when the original is priced out, relying on
  the chain's replace-by-nonce mempool rule for at-most-once execution.

The service is the one way to build, sign and submit a transaction:
the Reach runtime routes every transaction through it, which is how
family dispatch stays below the runtime (callers never touch
``profile.family``).  Its handles wait through
:func:`~repro.chain.base.drive`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.chain.base import (
    Account,
    BaseChain,
    ChainError,
    Transaction,
    TransientChainError,
    TxHandle,
)
from repro.chain.params import GWEI
from repro.obs.prof import staged

if TYPE_CHECKING:
    from repro.faults.policy import RetryPolicy

#: default gas ceiling for EVM transactions built without an explicit limit
DEFAULT_EVM_GAS_LIMIT = 3_000_000


class ChainService:
    """One client session against one chain, shared by all families."""

    def __init__(self, chain: BaseChain, max_retries: int = 2, policy: "RetryPolicy | None" = None):
        self.chain = chain
        self.family = chain.profile.family
        self.max_retries = max_retries
        #: recovery policy for stuck (submitted-but-unconfirmed)
        #: transactions; None keeps submissions as plain TxHandles and
        #: the service byte-identical to the pre-fault-layer behaviour.
        self.policy = policy
        self.rejections = 0  # rejected submissions observed this session
        self.retries = 0  # rebuilt submissions that were re-attempted
        self.transient_recoveries = 0  # transient drops that recovered on retry
        self.fee_bumps = 0  # stuck-tx replacements resubmitted

    @property
    def recorder(self):
        """The chain's telemetry sink (read through, never cached: a
        recorder may be attached to the queue after this session opens)."""
        return self.chain.recorder

    # -- fee estimation --------------------------------------------------------

    def fee_fields(self) -> dict[str, int]:
        """Family-appropriate fee fields for a transaction built now."""
        if self.family == "evm":
            from repro.chain.ethereum.chain import MIN_BASE_FEE

            priority = int(self.chain.profile.priority_fee_gwei * GWEI)
            return {
                "max_fee_per_gas": max(self.chain.base_fee * 2, MIN_BASE_FEE) + priority,
                "priority_fee_per_gas": priority,
            }
        return {"flat_fee": self.chain.profile.min_fee}

    def bump_fees(self, tx: Transaction, factor: float) -> Transaction:
        """A re-priced copy of ``tx`` (same nonce) outbidding the original.

        The bid is the maximum of a fresh estimate and ``factor`` times
        the stuck bid, and always strictly above the old one so the
        chain's replace-by-nonce rule accepts it.
        """
        fees = self.fee_fields()
        if self.family == "evm":
            max_fee = max(fees["max_fee_per_gas"], int(tx.max_fee_per_gas * factor), tx.max_fee_per_gas + 1)
            fees = {
                "max_fee_per_gas": max_fee,
                "priority_fee_per_gas": min(fees["priority_fee_per_gas"], max_fee),
            }
        else:
            fees = {"flat_fee": max(fees["flat_fee"], int(tx.flat_fee * factor), tx.flat_fee + 1)}
        return Transaction(
            sender=tx.sender,
            nonce=tx.nonce,
            kind=tx.kind,
            to=tx.to,
            value=tx.value,
            data=tx.data,
            gas_limit=tx.gas_limit,
            **fees,
        )

    # -- building --------------------------------------------------------------

    def build(
        self,
        account: Account,
        kind: str,
        to: str | None = None,
        value: int = 0,
        data: dict[str, Any] | None = None,
        gas_limit: int | None = None,
    ) -> Transaction:
        """Build a transaction with a fresh nonce and estimated fees."""
        if self.family == "evm":
            gas = DEFAULT_EVM_GAS_LIMIT if gas_limit is None else gas_limit
        else:
            gas = 0  # AVM budgets are flat-fee pooled, not gas-metered
        return Transaction(
            sender=account.address,
            nonce=account.next_nonce(),
            kind=kind,
            to=to,
            value=value,
            data=data or {},
            gas_limit=gas,
            **self.fee_fields(),
        )

    # -- submission ------------------------------------------------------------

    # Client-session work (sign + retry/rebuild policy); the nested
    # chain.submit and crypto.sign stages subtract themselves out.
    @staged("chain.service")
    def submit(self, account: Account, tx: Transaction) -> TxHandle:
        """Sign + submit ``tx``; return its :class:`TxHandle` future.

        A transient drop is resubmitted unchanged (the provider lost it,
        the transaction is fine).  On a real rejection the account's
        nonce is resynced from chain state and the transaction rebuilt
        (fresh nonce + fees) for a bounded number of attempts.  A
        rebuild that changes nothing cannot succeed either, so the
        rejection is re-raised at once.
        """
        attempts = 0
        while True:
            try:
                self.chain.sign(account, tx)
                txid = self.chain.submit(tx)
                return self._handle(account, tx, txid)
            except TransientChainError:
                self._observe_rejection()
                attempts += 1
                if attempts > self.max_retries:
                    raise
                self._observe_retry()
                self.transient_recoveries += 1
                if self.recorder.enabled:
                    self.recorder.counter("fault_recovered_total", kind="tx_rejection")
            except ChainError:
                self._observe_rejection()
                self.resync_nonce(account)
                attempts += 1
                if attempts > self.max_retries:
                    raise
                rebuilt = self._rebuild(account, tx)
                if rebuilt is None:
                    raise
                self._observe_retry()
                tx = rebuilt

    def _handle(self, account: Account, tx: Transaction, txid: str) -> TxHandle:
        """Wrap a submitted tx: managed (watchdogged) if a policy is set."""
        if self.policy is None:
            return TxHandle(self.chain, txid)
        return ManagedTxHandle(self, account, tx)

    def _observe_rejection(self) -> None:
        self.rejections += 1
        if self.recorder.enabled:
            self.recorder.counter("chain_tx_rejected_total", chain=self.chain.profile.name)
        if self.chain.watchtower.enabled:
            self.chain.watchtower.note("tx_rejected", chain=self.chain.profile.name)

    def _observe_retry(self) -> None:
        self.retries += 1
        if self.recorder.enabled:
            self.recorder.counter("chain_tx_retries_total", chain=self.chain.profile.name)
        if self.chain.watchtower.enabled:
            self.chain.watchtower.note("tx_retried", chain=self.chain.profile.name)

    def _rebuild(self, account: Account, rejected: Transaction) -> Transaction | None:
        """Re-price/re-nonce a rejected transaction; None if unchanged."""
        fees = self.fee_fields()
        next_nonce = account.nonce  # peek: resynced, not yet consumed
        unchanged = rejected.nonce == next_nonce and all(
            getattr(rejected, name) == value for name, value in fees.items()
        )
        if unchanged:
            return None
        return Transaction(
            sender=rejected.sender,
            nonce=account.next_nonce(),
            kind=rejected.kind,
            to=rejected.to,
            value=rejected.value,
            data=rejected.data,
            gas_limit=rejected.gas_limit,
            **fees,
        )

    def resync_nonce(self, account: Account) -> None:
        """Reset the client-side nonce to the chain-observed next value."""
        account.nonce = self.chain.next_nonce_for(account.address)
        recorder = self.recorder
        if recorder.enabled:
            recorder.counter("chain_nonce_resyncs_total", chain=self.chain.profile.name)


class ManagedTxHandle(TxHandle):
    """A :class:`TxHandle` with a stuck-transaction watchdog.

    While the transaction is unconfirmed, a watchdog event re-arms on
    the service's :class:`~repro.faults.policy.RetryPolicy` schedule
    (timeout x backoff^n).  If the transaction is not even *included*
    when the watchdog fires -- priced out by a fee spike, typically --
    the handle signs and submits a fee-bumped replacement with the same
    nonce, evicting the stuck mempool copy via replace-by-nonce, and
    re-targets itself at the replacement's txid.  Once included, it only
    waits (a replacement could double-execute).  Callers see one future
    that settles regardless of how many replacements it took.
    """

    def __init__(self, service: ChainService, account: Account, tx: Transaction):
        # Set before super().__init__: subscribing can fire _on_confirmed
        # synchronously if the receipt is already confirmed.
        self.service = service
        self.account = account
        self.tx = tx
        self.resubmits = 0
        self._watchdog = None
        #: trace context at submission; watchdog re-arms and fee-bump
        #: replacement spans are pinned to it so recovery activity stays
        #: inside the journey that submitted the original transaction.
        recorder = service.chain.recorder
        self._context = recorder.current_context() if recorder.enabled else None
        super().__init__(service.chain, tx.txid)
        self._arm()

    def _arm(self) -> None:
        if self.done:
            return
        delay = self.service.policy.delay(self.resubmits)
        with self.chain.recorder.activate(self._context):
            self._watchdog = self.chain.queue.schedule(
                delay, self._on_timeout, label="tx-watchdog"
            )

    def _on_confirmed(self, receipt) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        if self.resubmits and self.service.recorder.enabled:
            self.service.recorder.counter("fault_recovered_total", kind="stuck_tx")
        super()._on_confirmed(receipt)

    def _on_timeout(self) -> None:
        self._watchdog = None
        if self.done:
            return
        policy = self.service.policy
        if self.receipt.included_at is not None or self.resubmits >= policy.max_resubmits:
            # Included (awaiting depth) or out of bumps: keep waiting.
            self._arm()
            return
        bumped = self.service.bump_fees(self.tx, policy.fee_bump)
        try:
            self.chain.sign(self.account, bumped)
            new_txid = self._submit_bumped(bumped)
        except ChainError:
            # The bump itself failed (race with inclusion, provider
            # down); the original is still pending -- back off.
            self._arm()
            return
        self.tx = bumped
        self.txid = new_txid
        self.resubmits += 1
        self.service.fee_bumps += 1
        if self.service.recorder.enabled:
            self.service.recorder.counter(
                "chain_tx_fee_bumped_total", chain=self.chain.profile.name
            )
        if self.chain.watchtower.enabled:
            self.chain.watchtower.note(
                "fee_bump",
                chain=self.chain.profile.name,
                txid=new_txid[:12],
                resubmits=self.resubmits,
            )
        self.chain.subscribe_receipt(new_txid, self._on_confirmed)
        self._arm()

    def _submit_bumped(self, bumped: Transaction) -> str:
        """Submit a replacement, absorbing one transient provider drop."""
        try:
            return self.chain.submit(bumped)
        except TransientChainError:
            self.service._observe_rejection()
            txid = self.chain.submit(bumped)
            self.service._observe_retry()
            self.service.transient_recoveries += 1
            if self.service.recorder.enabled:
                self.service.recorder.counter("fault_recovered_total", kind="tx_rejection")
            return txid
