package core

import (
	"testing"

	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

// Tests for the local fast path: a push to a vertex this rank masters is
// accepted in place and never enters the mailbox.

// ringEdges returns the n-vertex ring with chords v -> v+7.
func ringEdges(n uint64) []graph.Edge {
	var edges []graph.Edge
	for v := uint64(0); v < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex((v + 1) % n)})
		edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex((v + 7) % n)})
	}
	return edges
}

// TestSingleRankTraversalMailsNothing: with one rank every vertex is local,
// so a whole traversal — seed pushes and every push a Visit makes — runs
// without a single mailbox record, and the termination detector (which
// counts only mailbox records) sees S = R = 0.
func TestSingleRankTraversalMailsNothing(t *testing.T) {
	const n = 64
	var st Stats
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		part, err := partition.BuildEdgeList(r, ringEdges(n), n)
		if err != nil {
			panic(err)
		}
		algo := &floodAlgo{part: part, seen: make([]bool, part.StateLen)}
		q := NewQueue[floodVisitor](r, part, algo, Config{})
		q.Push(floodVisitor{v: 0, hops: 5})
		q.Run()
		st = q.Stats()
		for v, seen := range algo.seen[:6] {
			if !seen {
				t.Errorf("vertex %d within 5 hops of 0 not reached", v)
			}
		}
	})
	if st.Pushed < 2 || st.Local != st.Pushed {
		t.Fatalf("pushed %d, local %d: every push on one rank must be local", st.Pushed, st.Local)
	}
	if st.Mailbox.RecordsSent != 0 || st.Mailbox.RecordsDelivered != 0 || st.Received != 0 {
		t.Fatalf("one-rank traversal used the mailbox: %+v", st.Mailbox)
	}
	if st.DetectorSent != 0 || st.DetectorReceived != 0 {
		t.Fatalf("detector S=%d R=%d, want 0/0 (local visitors never leave the rank)",
			st.DetectorSent, st.DetectorReceived)
	}
	if st.Queued != st.Executed {
		t.Fatalf("queued %d != executed %d", st.Queued, st.Executed)
	}
}

// preVisitCounter records PreVisit calls and admits every visitor.
type preVisitCounter struct {
	orderAlgo
	preVisits int
}

func (a *preVisitCounter) PreVisit(orderVisitor) bool {
	a.preVisits++
	return true
}

// TestLocalPushAfterCancelChangesNothing: a cancelled queue drops a local
// push the way it drains a delivered record — no PreVisit, nothing
// scheduled, nothing mailed; only the push itself is counted.
func TestLocalPushAfterCancelChangesNothing(t *testing.T) {
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		part, err := partition.BuildEdgeList(r, ringEdges(16), 16)
		if err != nil {
			panic(err)
		}
		algo := &preVisitCounter{}
		q := NewQueue[orderVisitor](r, part, algo, Config{})
		q.Push(orderVisitor{v: 1})
		if algo.preVisits != 1 || q.LocalIdle() {
			t.Fatalf("live local push: %d PreVisits, idle=%v; want 1 and queued", algo.preVisits, q.LocalIdle())
		}
		q.Cancel()
		before := q.Stats()
		q.Push(orderVisitor{v: 2})
		after := q.Stats()
		if algo.preVisits != 1 {
			t.Fatal("cancelled queue pre-visited a local push")
		}
		if !q.LocalIdle() || after.Queued != before.Queued {
			t.Fatalf("cancelled queue scheduled a local push (idle=%v, queued %d -> %d)",
				q.LocalIdle(), before.Queued, after.Queued)
		}
		if after.Pushed != before.Pushed+1 || after.Local != before.Local+1 {
			t.Fatalf("push not counted: pushed %d -> %d, local %d -> %d",
				before.Pushed, after.Pushed, before.Local, after.Local)
		}
		if q.mb.PendingRecords() != 0 || q.mb.Stats().RecordsSent != 0 {
			t.Fatal("cancelled local push reached the mailbox")
		}
	})
}

// TestAllocBudgetLocalPush pins the local fast path's steady state: pushing
// locally owned visitors (PreVisit, schedule) and draining them with Step
// allocates nothing once the scheduler has grown to the workload's peak, on
// the calendar and on the binary heap.
func TestAllocBudgetLocalPush(t *testing.T) {
	for _, tc := range []struct {
		name string
		algo Algorithm[orderVisitor]
	}{
		{"calendar", &bucketAlgo{}},
		{"heap", &preVisitCounter{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt.NewMachine(1).Run(func(r *rt.Rank) {
				part, err := partition.BuildEdgeList(r, ringEdges(64), 64)
				if err != nil {
					panic(err)
				}
				q := NewQueue[orderVisitor](r, part, tc.algo, Config{})
				cycle := func() {
					for i := 0; i < 256; i++ {
						q.Push(orderVisitor{v: graph.Vertex(i % 64), prio: uint32(i % 3)})
					}
					for q.Step(64) {
					}
				}
				for i := 0; i < 8; i++ {
					cycle()
				}
				avg := testing.AllocsPerRun(100, cycle)
				if st := q.Stats(); st.Local != st.Pushed || st.Mailbox.RecordsSent != 0 {
					t.Fatalf("pushes left the rank: %+v", st)
				}
				if raceEnabled {
					t.Skipf("race detector active: measured %.2f allocs/cycle, not asserted", avg)
				}
				if avg > budgetEpsilon {
					t.Errorf("local push steady state allocates %.2f per 256-push cycle, want ~0", avg)
				}
			})
		})
	}
}
