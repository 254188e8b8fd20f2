"""Tests for the concurrent snapshot-isolation fuzzer."""

from repro.datamodel.store import ObjectStore
from repro.difftest.concurrent import (
    apply_op,
    generate_ops,
    main,
    run_fuzz,
    seed_store,
)


class TestOpGeneration:
    def test_deterministic_for_a_seed(self):
        assert generate_ops(7, 60) == generate_ops(7, 60)
        assert generate_ops(7, 60) != generate_ops(8, 60)

    def test_tickets_are_strictly_increasing(self):
        _ops, tickets = generate_ops(7, 60)
        assert all(a < b for a, b in zip(tickets, tickets[1:]))

    def test_ops_replay_cleanly_and_land_on_the_same_ticket(self):
        ops, tickets = generate_ops(7, 60)
        store = ObjectStore()
        seed_store(store)
        for op in ops:
            apply_op(store, op)
        assert store.ticket == tickets[-1]


class TestFuzzRound:
    def test_small_round_has_zero_disagreements(self):
        stats = run_fuzz(seed=11, ops=80, readers=2, queries_per_reader=4)
        assert stats.ok, stats.disagreements
        assert stats.ops == 80
        assert stats.observations == stats.snapshots == 8
        assert "OK" in stats.summary()

    def test_cli_exit_codes(self, capsys):
        assert main(["--seed", "11", "--ops", "40", "--readers", "2",
                     "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 disagreement(s) [OK]" in out
