"""The Conflux-style chain: EVM execution + Tree-Graph + storage collateral.

Extends the EVM chain with Conflux's distinctive mechanics:

- **Tree-Graph consensus**: every block-production slot may mine
  several concurrent PoW blocks; all enter the DAG, the pivot chain is
  GHOST-selected, and only pivot blocks carry this chain's transaction
  execution (the linear ``blocks`` list *is* the pivot chain, with the
  DAG tracked alongside).
- **storage collateral**: contract storage locks CFX from the sender
  (1/16 CFX per 64 storage bytes on real Conflux; modelled per written
  slot here), refunded when the storage is released.

The Reach artifact that runs here is byte-for-byte the artifact the
Ethereum connector runs -- the "without code change" claim, extended to
the thesis's third connector.
"""

from __future__ import annotations

import random
from typing import Any

from repro.crypto.hashing import sha256_hex
from repro.crypto.keys import PublicKey
from repro.simnet import EventQueue
from repro.chain.base import Block, Receipt, Transaction, TxStatus
from repro.chain.ethereum.chain import EthereumChain
from repro.chain.params import GWEI, NetworkProfile, PROFILES
from repro.chain.conflux.treegraph import GhostDag

#: drip (10^-18 CFX) locked per storage slot written by a contract call
COLLATERAL_PER_SLOT = 10**15  # 1/1000 CFX per slot -- simulator scale

CONFLUX_PROFILE = NetworkProfile(
    name="conflux-testnet",
    family="evm",
    native_symbol="CFX",
    decimals=18,
    block_time=0.5,  # sub-second Tree-Graph blocks
    confirmation_depth=10,  # deferred execution: ~5 epochs + margin
    provider_overhead=1.3,
    overhead_sigma=0.25,
    congestion_mean=0.35,
    congestion_volatility=0.05,
    initial_base_fee_gwei=1.0,
    priority_fee_gwei=0.2,
    eur_per_token=0.04,  # late-2022 CFX price
)
PROFILES.setdefault("conflux-testnet", CONFLUX_PROFILE)

CONFLUX_DEVNET = NetworkProfile(
    name="conflux-devnet",
    family="evm",
    native_symbol="CFX",
    decimals=18,
    block_time=0.5,
    confirmation_depth=0,
    provider_overhead=0.0,
    overhead_sigma=0.0,
    congestion_mean=0.0,
    congestion_volatility=0.0,
    initial_base_fee_gwei=1.0,
    priority_fee_gwei=0.2,
    eur_per_token=0.04,
)
PROFILES.setdefault("conflux-devnet", CONFLUX_DEVNET)


class ConfluxChain(EthereumChain):
    """An EVM chain whose consensus is a PoW Tree-Graph."""

    def __init__(
        self,
        profile: NetworkProfile | str = "conflux-testnet",
        queue: EventQueue | None = None,
        seed: int = 0,
        miner_count: int = 6,
    ):
        if isinstance(profile, str):
            profile = PROFILES[profile]
        super().__init__(profile=profile, queue=queue, seed=seed, validator_count=0)
        self.dag = GhostDag()
        self.collateral: dict[str, int] = {}  # sender -> locked drip
        self._slot_owner: dict[tuple[str, bytes], str] = {}  # (contract, key) -> collateral payer
        self._miners = [f"cfx:miner-{index}" for index in range(max(miner_count, 1))]
        self._rng = random.Random(seed * 31 + 5)
        self._dag_counter = 0

    def _bootstrap_validators(self, count: int) -> None:
        """PoW: no validator registry (miners are addresses, not stakers)."""

    # -- consensus --------------------------------------------------------------

    def _address_for(self, public: PublicKey) -> str:
        return "cfx:" + public.fingerprint()[:40]

    def _select_proposer(self, block_number: int, seed: bytes) -> tuple[str, dict[str, Any]]:
        """Mine this slot's blocks into the DAG; return the pivot miner.

        Sub-second intervals mean concurrent blocks are common: each
        slot mines 1-3 blocks; the non-pivot ones attach as siblings
        and later blocks referee the leftover tips (weight, not waste).
        """
        parent = self.dag.pivot_chain()[-1]
        leftover_tips = tuple(t for t in self.dag.tips() if t != parent)
        concurrent = 1 + (self._rng.random() < 0.35) + (self._rng.random() < 0.10)
        mined = []
        for _ in range(concurrent):
            self._dag_counter += 1
            block_id = sha256_hex(b"cfx-block", self._dag_counter.to_bytes(8, "big"), seed)[:16]
            miner = self._rng.choice(self._miners)
            self.dag.add_block(
                block_id,
                parent=parent,
                referees=leftover_tips if not mined else (),
                miner=miner,
                timestamp=self.queue.clock.now,
            )
            mined.append((block_id, miner))
            leftover_tips = ()
        # The pivot after this slot decides which miner's block carries
        # the transactions.
        pivot_tip = self.dag.pivot_chain()[-1]
        pivot_miner = self.dag.blocks[pivot_tip].miner
        return pivot_miner, {
            "dag_block": pivot_tip,
            "mined_this_slot": [b for b, _ in mined],
            "dag_size": len(self.dag),
        }

    # -- storage collateral -----------------------------------------------------------

    def _execute(self, tx: Transaction, block: Block) -> Receipt:
        receipt = super()._execute(tx, block)
        if receipt.status is TxStatus.SUCCESS and tx.kind in ("create", "call"):
            self._settle_collateral(tx, receipt)
        return receipt

    def _settle_collateral(self, tx: Transaction, receipt: Receipt) -> None:
        contract_address = receipt.contract_address or tx.to
        contract = self.contracts.get(contract_address)
        if contract is None:
            return
        delta = 0
        for key, value in contract.storage.items():
            owner_key = (contract_address, key)
            occupied = not (value == 0 or value == b"" or value == "")
            owner = self._slot_owner.get(owner_key)
            if occupied and owner is None:
                self._slot_owner[owner_key] = tx.sender
                delta += COLLATERAL_PER_SLOT
            elif not occupied and owner is not None:
                del self._slot_owner[owner_key]
                refund_to = owner
                self.collateral[refund_to] = self.collateral.get(refund_to, 0) - COLLATERAL_PER_SLOT
                self._credit(refund_to, COLLATERAL_PER_SLOT)
        if delta:
            self._debit(tx.sender, delta)
            self.collateral[tx.sender] = self.collateral.get(tx.sender, 0) + delta
