package mailbox

import (
	"fmt"
	"testing"
	"time"

	"havoqgt/internal/faults"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// reliableExchange runs an all-to-all exchange of msgs records per pair over
// reliable boxes, under the given fault plan (nil = perfect transport), and
// returns the per-rank received payloads plus per-rank stats.
func reliableExchange(t *testing.T, p, msgs int, topo Topology, plan *faults.Plan) ([][]string, []Stats) {
	t.Helper()
	m := rt.NewMachine(p)
	if plan != nil {
		inj := faults.New(*plan, m.Obs())
		m.SetTransport(inj)
		inj.Arm()
	}
	got := make([][]string, p)
	stats := make([]Stats, p)
	m.Run(func(r *rt.Rank) {
		det := termination.New(r)
		box := New(r, topo, det, WithFlushBytes(64), WithReliable(),
			WithRTO(time.Millisecond, 20*time.Millisecond))
		if !box.Reliable() {
			panic("WithReliable did not take")
		}
		for dest := 0; dest < p; dest++ {
			for i := 0; i < msgs; i++ {
				box.Send(dest, []byte(fmt.Sprintf("%d->%d#%d", r.Rank(), dest, i)))
			}
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			box.Poll(func(rec Record) {
				got[r.Rank()] = append(got[r.Rank()], string(rec.Payload))
			})
			box.FlushAll()
			if det.Pump(box.Idle()) {
				break
			}
			if time.Now().After(deadline) {
				panic("reliable exchange did not quiesce")
			}
		}
		stats[r.Rank()] = box.Stats()
	})
	return got, stats
}

// checkExactlyOnce asserts every expected record arrived exactly once.
func checkExactlyOnce(t *testing.T, got [][]string, p, msgs int, label string) {
	t.Helper()
	for rank := 0; rank < p; rank++ {
		counts := map[string]int{}
		for _, s := range got[rank] {
			counts[s]++
		}
		if len(got[rank]) != p*msgs {
			t.Fatalf("%s: rank %d received %d records, want %d", label, rank, len(got[rank]), p*msgs)
		}
		for from := 0; from < p; from++ {
			for i := 0; i < msgs; i++ {
				key := fmt.Sprintf("%d->%d#%d", from, rank, i)
				if counts[key] != 1 {
					t.Fatalf("%s: rank %d got record %q %d times, want exactly once",
						label, rank, key, counts[key])
				}
			}
		}
	}
}

func TestReliablePerfectTransport(t *testing.T) {
	// Reliability protocol under no faults: plain exactly-once delivery, and
	// the logical-once envelope conservation law still holds.
	got, stats := reliableExchange(t, 4, 10, NewDirect(4), nil)
	checkExactlyOnce(t, got, 4, 10, "perfect")
	var sent, recv uint64
	for _, s := range stats {
		sent += s.EnvelopesSent
		recv += s.EnvelopesRecv
	}
	if sent != recv {
		t.Fatalf("envelope conservation violated: sent %d != recv %d", sent, recv)
	}
}

func TestReliableSurvivesMessageFaults(t *testing.T) {
	// Drop + duplicate + corrupt + reorder on the mailbox plane: the seq/ack/
	// retransmit protocol must still deliver every record exactly once and
	// keep the conservation laws intact.
	topos := map[string]func(int) Topology{
		"direct": func(p int) Topology { return NewDirect(p) },
		"2d":     func(p int) Topology { return NewGrid2D(p) },
	}
	for name, mk := range topos {
		t.Run(name, func(t *testing.T) {
			const p, msgs = 4, 25
			plan := &faults.Plan{
				Seed: 0xfa517,
				Msgs: []faults.MsgRule{{
					From: faults.Wildcard, To: faults.Wildcard, Kind: int(rt.KindMailbox),
					Drop: 0.10, Duplicate: 0.05, Corrupt: 0.05, Reorder: 0.25,
				}},
			}
			got, stats := reliableExchange(t, p, msgs, mk(p), plan)
			checkExactlyOnce(t, got, p, msgs, name)
			var sent, recv, retrans uint64
			for _, s := range stats {
				sent += s.EnvelopesSent
				recv += s.EnvelopesRecv
				retrans += s.Retransmits
			}
			if sent != recv {
				t.Fatalf("%s: envelope conservation violated under faults: sent %d != recv %d",
					name, sent, recv)
			}
			if retrans == 0 {
				t.Errorf("%s: 10%% drop rate but zero retransmits — fault plan not engaged?", name)
			}
		})
	}
}

func TestUnreliableBoxLosesRecordsUnderDrops(t *testing.T) {
	// Negative control: without WithReliable the same drop schedule must
	// lose records (otherwise the reliable test proves nothing). Termination
	// can hang when drops eat S-counted records, so this drives a fixed
	// number of poll rounds instead of waiting for quiescence.
	const p = 4
	m := rt.NewMachine(p)
	inj := faults.New(faults.Plan{
		Seed: 0xfa517,
		Msgs: []faults.MsgRule{{
			From: faults.Wildcard, To: faults.Wildcard, Kind: int(rt.KindMailbox),
			Drop: 0.5,
		}},
	}, m.Obs())
	m.SetTransport(inj)
	var lost [8]bool
	m.Run(func(r *rt.Rank) {
		box := New(r, NewDirect(p), nil, WithFlushBytes(16))
		recv := 0
		for dest := 0; dest < p; dest++ {
			if dest != r.Rank() {
				for i := 0; i < 20; i++ {
					box.Send(dest, []byte("record-payload"))
				}
			}
		}
		box.FlushAll()
		deadline := time.Now().Add(time.Second)
		for time.Now().Before(deadline) {
			recv += box.Poll(discard)
		}
		lost[r.Rank()] = recv < (p-1)*20
	})
	anyLost := false
	for _, l := range lost[:p] {
		anyLost = anyLost || l
	}
	if !anyLost {
		t.Fatal("50% drop rate lost nothing on the raw path; injector inert?")
	}
}
