package core

import (
	"testing"

	"fetchphi/internal/memsim"
)

func TestNodeTypeCodec(t *testing.T) {
	tests := []struct {
		winner, waiter int
	}{
		{-1, -1}, {0, -1}, {5, -1}, {0, 1}, {7, 3}, {1000, 999},
	}
	for _, tt := range tests {
		w := encodeNode(tt.winner, tt.waiter)
		if nodeWinner(w) != tt.winner || nodeWaiter(w) != tt.waiter {
			t.Errorf("(%d,%d) round-tripped to (%d,%d)", tt.winner, tt.waiter, nodeWinner(w), nodeWaiter(w))
		}
	}
	if encodeNode(-1, -1) != 0 {
		t.Error("(⊥,⊥) must encode to 0 (the fresh-variable value)")
	}
}

func TestAcquireNodeTransitions(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 3)
	v := m.NewVar("node", memsim.HomeGlobal, 0)
	results := make([]AcquireResult, 3)
	for i := 0; i < 3; i++ {
		i := i
		m.AddProc("p", func(p *memsim.Proc) {
			results[i] = acquireNode(p, v)
		})
	}
	if err := m.Run(memsim.RunConfig{Sched: memsim.RoundRobin{}}).Err(); err != nil {
		t.Fatal(err)
	}
	if results[0] != Winner || results[1] != PrimaryWaiter || results[2] != SecondaryWaiter {
		t.Fatalf("results = %v %v %v", results[0], results[1], results[2])
	}
	if nodeWinner(m.Value(v)) != 0 || nodeWaiter(m.Value(v)) != 1 {
		t.Fatalf("final node = (%d,%d)", nodeWinner(m.Value(v)), nodeWaiter(m.Value(v)))
	}
}

func TestReleaseNodeSuccessAndFail(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 2)
	free := m.NewVar("free", memsim.HomeGlobal, 0)
	contested := m.NewVar("contested", memsim.HomeGlobal, encodeNode(0, 1))
	m.AddProc("p0", func(p *memsim.Proc) {
		acquireNode(p, free)
		if !releaseNode(p, free) {
			p.Machine() // unreachable; fail via panic below
			panic("release of uncontested node failed")
		}
		if releaseNode(p, contested) {
			panic("release of contested node succeeded")
		}
	})
	m.AddProc("p1", func(*memsim.Proc) {})
	if err := m.Run(memsim.RunConfig{Sched: memsim.RoundRobin{}}).Err(); err != nil {
		t.Fatal(err)
	}
	if m.Value(free) != 0 {
		t.Errorf("released node = %d, want 0", m.Value(free))
	}
	if m.Value(contested) != encodeNode(0, 1) {
		t.Errorf("failed release mutated the node")
	}
}

func TestAcquireResultString(t *testing.T) {
	if Winner.String() != "WINNER" || PrimaryWaiter.String() != "PRIMARY_WAITER" ||
		SecondaryWaiter.String() != "SECONDARY_WAITER" || AcquireResult(9).String() != "UNKNOWN" {
		t.Fatal("AcquireResult.String wrong")
	}
}
