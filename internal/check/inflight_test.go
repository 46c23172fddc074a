package check

import (
	"fmt"
	"testing"

	"havoqgt/internal/mailbox"
	"havoqgt/internal/rt"
)

// TestRecordConservationMidFlight asserts the full per-machine conservation
// law — Σsent == Σdelivered + Σforwarded-in-buffers — at synchronization
// points *between* flush rounds, not just after quiescence. A huge flush
// threshold parks every routed record in aggregation buffers, so each
// Poll→barrier→snapshot round sees the in-flight gap entirely inside
// Box.PendingRecords; Diameter()+1 flush rounds drain it to zero.
func TestRecordConservationMidFlight(t *testing.T) {
	for _, name := range Topologies() {
		for _, p := range []int{4, 9} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				topo, err := mailbox.ByName(name, p)
				if err != nil {
					t.Fatal(err)
				}
				rounds := topo.Diameter() + 1
				stats := make([]mailbox.Stats, p)
				pending := make([]int, p)
				perRound := make([][]Violation, rounds)
				m := rt.NewMachine(p)
				m.Run(func(r *rt.Rank) {
					box := mailbox.New(r, topo, nil, mailbox.WithFlushBytes(1<<20))
					for dest := 0; dest < p; dest++ {
						box.Send(dest, []byte(fmt.Sprintf("%d->%d", r.Rank(), dest)))
					}
					for round := 0; round < rounds; round++ {
						// All sends/ships happened-before the barrier; Poll then
						// drains everything in flight into deliveries or buffers.
						r.Barrier()
						box.Poll(func(mailbox.Record) {})
						r.Barrier()
						// Transport quiet: snapshot and check conservation.
						stats[r.Rank()] = box.Stats()
						pending[r.Rank()] = box.PendingRecords()
						r.Barrier()
						if r.Rank() == 0 {
							perRound[round] = MailboxInFlight(topo, stats, pending)
						}
						box.FlushAll()
					}
				})
				for round, vs := range perRound {
					if err := Error(vs); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				// After Diameter()+1 flush rounds everything must have landed.
				var sent, delivered, pend uint64
				for r := 0; r < p; r++ {
					sent += stats[r].RecordsSent
					delivered += stats[r].RecordsDelivered
					pend += uint64(pending[r])
				}
				if sent != uint64(p*p) {
					t.Fatalf("Σsent = %d, want %d", sent, p*p)
				}
				if pend != 0 || delivered != sent {
					t.Fatalf("after %d rounds: delivered=%d pending=%d of %d sent",
						rounds, delivered, pend, sent)
				}
			})
		}
	}
}

// TestRecordConservationWithSelfEnvelope: the mid-flight conservation law
// stays exact while loopback records wait in a rank's self-envelope. Every
// delivered record with hops left is echoed back to its own rank from inside
// the Poll handler, so the self-envelope is non-empty at the end of most
// rounds; Box.PendingRecords must count those echoes or Σsent would exceed
// Σdelivered + Σpending.
func TestRecordConservationWithSelfEnvelope(t *testing.T) {
	const p, echoes = 4, 3
	const rounds = echoes + 3 // flush, deliver, then one round per echo
	topo := mailbox.NewDirect(p)
	stats := make([]mailbox.Stats, p)
	pending := make([]int, p)
	selfWaiting := make([][]bool, rounds)
	for i := range selfWaiting {
		selfWaiting[i] = make([]bool, p)
	}
	perRound := make([][]Violation, rounds)
	m := rt.NewMachine(p)
	m.Run(func(r *rt.Rank) {
		box := mailbox.New(r, topo, nil, mailbox.WithFlushBytes(1<<20))
		for dest := 0; dest < p; dest++ {
			box.Send(dest, []byte{echoes})
		}
		echo := func(rec mailbox.Record) {
			if hops := rec.Payload[0]; hops > 0 {
				box.Send(r.Rank(), []byte{hops - 1})
			}
		}
		for round := 0; round < rounds; round++ {
			r.Barrier()
			box.Poll(echo)
			r.Barrier()
			stats[r.Rank()] = box.Stats()
			pending[r.Rank()] = box.PendingRecords()
			r.Barrier()
			if r.Rank() == 0 {
				perRound[round] = MailboxInFlight(topo, stats, pending)
			}
			box.FlushAll()
			// Aggregation buffers are empty now: not idle means echoes wait
			// in the self-envelope.
			selfWaiting[round][r.Rank()] = !box.Idle()
		}
	})
	for round, vs := range perRound {
		if err := Error(vs); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	for round := 0; round <= echoes; round++ {
		for rank, waiting := range selfWaiting[round] {
			if !waiting {
				t.Fatalf("round %d: rank %d had no echo waiting in its self-envelope", round, rank)
			}
		}
	}
	var sent, delivered, pend uint64
	for r := 0; r < p; r++ {
		sent += stats[r].RecordsSent
		delivered += stats[r].RecordsDelivered
		pend += uint64(pending[r])
	}
	if want := uint64(p * p * (1 + echoes)); sent != want {
		t.Fatalf("Σsent = %d, want %d", sent, want)
	}
	if pend != 0 || delivered != sent {
		t.Fatalf("after %d rounds: delivered=%d pending=%d of %d sent", rounds, delivered, pend, sent)
	}
}
