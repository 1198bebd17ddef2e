"""Causal context propagation: ids, the ambient stack, and the kernel."""

import pytest

from repro.obs.recorder import NULL_RECORDER, Recorder, TraceContext
from repro.simnet import EventQueue


class TestSpanIdentity:
    def test_root_span_starts_a_fresh_trace(self):
        recorder = Recorder()
        first = recorder.span("a")
        second = recorder.span("b")
        assert first.trace_id and second.trace_id
        assert first.trace_id != second.trace_id
        assert first.parent_id is None and second.parent_id is None
        assert first.span_id != second.span_id

    def test_explicit_parent_links_and_inherits_trace(self):
        recorder = Recorder()
        parent = recorder.span("parent")
        child = recorder.span("child", parent=parent.context)
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id

    def test_ambient_context_parents_new_spans(self):
        recorder = Recorder()
        parent = recorder.span("parent")
        with recorder.activate(parent.context):
            child = recorder.span("child")
        orphan = recorder.span("after")
        assert child.parent_id == parent.span_id
        assert orphan.parent_id is None
        assert orphan.trace_id != parent.trace_id

    def test_activation_nests_like_a_stack(self):
        recorder = Recorder()
        outer = recorder.span("outer")
        inner = recorder.span("inner", parent=outer.context)
        with recorder.activate(outer.context):
            with recorder.activate(inner.context):
                assert recorder.current_context() == inner.context
            assert recorder.current_context() == outer.context
        assert recorder.current_context() is None

    def test_activating_none_is_a_no_op(self):
        recorder = Recorder()
        with recorder.activate(None):
            assert recorder.current_context() is None

    def test_trace_ids_are_deterministic(self):
        """Same call sequence, same ids -- no wall clock, no randomness."""
        def run():
            recorder = Recorder()
            return [recorder.span(f"s{i}").trace_id for i in range(3)]

        assert run() == run()

    def test_context_is_an_immutable_value(self):
        context = TraceContext("t000001", 7)
        with pytest.raises(AttributeError):
            context.span_id = 8
        assert context == TraceContext("t000001", 7)


class TestNullRecorderContext:
    def test_null_recorder_propagates_nothing(self):
        assert NULL_RECORDER.current_context() is None
        with NULL_RECORDER.activate(TraceContext("t", 1)):
            assert NULL_RECORDER.current_context() is None
        span = NULL_RECORDER.span("ignored")
        assert span.context is None
        assert span.trace_id == ""


class TestEventQueuePropagation:
    def test_scheduled_callback_inherits_the_scheduling_context(self):
        recorder = Recorder()
        queue = EventQueue(recorder=recorder)
        parent = recorder.span("parent")
        seen = []
        with recorder.activate(parent.context):
            queue.schedule(1.0, lambda: seen.append(recorder.current_context()))
        queue.schedule(2.0, lambda: seen.append(recorder.current_context()))
        queue.run_until_idle()
        assert seen == [parent.context, None]

    def test_inherit_context_false_detaches_infrastructure_events(self):
        recorder = Recorder()
        queue = EventQueue(recorder=recorder)
        parent = recorder.span("parent")
        seen = []
        with recorder.activate(parent.context):
            queue.schedule(
                1.0, lambda: seen.append(recorder.current_context()), inherit_context=False
            )
        queue.run_until_idle()
        assert seen == [None]

    def test_chained_continuations_stay_in_the_trace(self):
        """An event scheduled from inside a traced callback inherits too."""
        recorder = Recorder()
        queue = EventQueue(recorder=recorder)
        root = recorder.span("root")
        spans = []

        def second():
            spans.append(recorder.span("second"))

        def first():
            spans.append(recorder.span("first"))
            queue.schedule(1.0, second)

        with recorder.activate(root.context):
            queue.schedule(1.0, first)
        queue.run_until_idle()
        assert [s.trace_id for s in spans] == [root.trace_id, root.trace_id]
        assert spans[0].parent_id == root.span_id
        assert spans[1].parent_id == root.span_id

    def test_null_recorder_queue_carries_no_context(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        assert event.context is None


class TestHandleCallbacks:
    def test_tx_handle_callback_runs_under_registration_context(self):
        from repro.chain.ethereum import EthereumChain

        recorder = Recorder()
        chain = EthereumChain(
            profile="eth-devnet", queue=EventQueue(recorder=recorder), seed=1, validator_count=4
        )
        account = chain.create_account(funding=10**18)
        tx = chain.make_transaction(account, "transfer", to=account.address, value=1)
        chain.sign(account, tx)
        registration = recorder.span("registration")
        seen = []
        from repro.chain.base import TxHandle

        chain.submit(tx)
        handle = TxHandle(chain, tx.txid)
        with recorder.activate(registration.context):
            handle.add_done_callback(lambda _h: seen.append(recorder.current_context()))
        chain.wait(tx.txid)
        assert seen == [registration.context]

    def test_op_spans_parent_ceremony_tx_spans(self):
        """Every tx span of a deploy ceremony joins the op span's trace."""
        from repro.bench.simulation import run_simulation

        recorder = Recorder()
        run_simulation("eth-devnet", 4, seed=2, recorder=recorder, concurrent=True)
        ops = [s for s in recorder.spans if s.cat == "op"]
        txs = [s for s in recorder.spans if s.cat == "tx"]
        assert ops and txs
        op_ids = {(s.trace_id, s.span_id) for s in ops}
        for tx_span in txs:
            assert (tx_span.trace_id, tx_span.parent_id) in op_ids
