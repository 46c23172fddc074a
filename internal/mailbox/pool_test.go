package mailbox

// Tests for the zero-allocation message plane (pool.go, DESIGN.md §9):
// flush-threshold semantics, in-place delivery isolation under hostile
// handlers, the self-envelope swap, pool round-trips, and the
// fault-injection recycling gate.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"havoqgt/internal/obs"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// TestFlushThresholdCountsFramedBytes pins the flush-threshold semantic
// documented on DefaultFlushBytes/WithFlushBytes: the threshold is measured
// in FRAMED envelope bytes — payload plus the 12-byte per-record header —
// so with T=64, a 51-byte payload (framed 63) stays buffered and a 52-byte
// payload (framed 64) ships immediately.
func TestFlushThresholdCountsFramedBytes(t *testing.T) {
	const threshold = 64
	cases := []struct {
		name      string
		payloads  []int // payload sizes sent in order to rank 1
		wantShips uint64
		wantPend  int
	}{
		{"one under (framed 63)", []int{threshold - recordHeader - 1}, 0, 1},
		{"exactly at (framed 64)", []int{threshold - recordHeader}, 1, 0},
		{"single overshoot ships whole", []int{500}, 1, 0},
		{"two records cross together", []int{20, 20}, 1, 0}, // framed 32+32 = 64
		{"two records stay under", []int{20, 19}, 0, 2},     // framed 32+31 = 63
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := rt.NewMachine(2)
			m.Run(func(r *rt.Rank) {
				if r.Rank() != 0 {
					return
				}
				box := New(r, NewDirect(2), nil, WithFlushBytes(threshold))
				for _, n := range tc.payloads {
					box.Send(1, bytes.Repeat([]byte{0x42}, n))
				}
				if got := box.Stats().EnvelopesSent; got != tc.wantShips {
					t.Errorf("EnvelopesSent = %d, want %d", got, tc.wantShips)
				}
				if got := box.PendingRecords(); got != tc.wantPend {
					t.Errorf("PendingRecords = %d, want %d", got, tc.wantPend)
				}
			})
		})
	}
}

// pumpExchange runs a full all-to-all exchange (msgs records from every rank
// to every rank, loopback included) and hands every delivered record to
// inspect from inside the Poll handler, while its payload is still the
// envelope's bytes. Returns per-rank received record counts.
func pumpExchange(t *testing.T, p int, topo Topology, msgs int, reliable bool,
	inspect func(rank int, rec Record)) []int {
	t.Helper()
	got := make([]int, p)
	m := rt.NewMachine(p)
	m.Run(func(r *rt.Rank) {
		det := termination.New(r)
		opts := []Option{WithFlushBytes(96)} // small: force many envelopes
		if reliable {
			opts = append(opts, WithReliable())
		}
		box := New(r, topo, det, opts...)
		for dest := 0; dest < p; dest++ {
			for i := 0; i < msgs; i++ {
				box.Send(dest, []byte(fmt.Sprintf("%d->%d#%d", r.Rank(), dest, i)))
			}
		}
		handle := func(rec Record) { inspect(r.Rank(), rec) }
		deadline := time.Now().Add(30 * time.Second)
		for {
			got[r.Rank()] += box.Poll(handle)
			box.FlushAll()
			if det.Pump(box.Idle()) {
				break
			}
			if time.Now().After(deadline) {
				panic("exchange did not quiesce")
			}
		}
	})
	return got
}

// TestDeliveredRecordsIsolatedUnderMutation is the anti-aliasing regression
// suite for in-place delivery: for every topology, raw and reliable, a
// hostile handler that appends to and scribbles over every payload it is
// handed must not corrupt any sibling record of the same envelope, nor —
// through envelopes recycled into the pool and refilled as outbound
// buffers — any record delivered later. Every record must still arrive
// intact, exactly once.
func TestDeliveredRecordsIsolatedUnderMutation(t *testing.T) {
	const p, msgs = 9, 6
	for _, reliable := range []bool{false, true} {
		for _, topo := range []Topology{NewDirect(p), NewGrid2D(p), NewGrid3D(p)} {
			name := fmt.Sprintf("%s/reliable=%v", topo.Name(), reliable)
			t.Run(name, func(t *testing.T) {
				seen := make([]map[string]int, p)
				for i := range seen {
					seen[i] = make(map[string]int)
				}
				got := pumpExchange(t, p, topo, msgs, reliable, func(rank int, rec Record) {
					// Intact on arrival, although every earlier handler call
					// scribbled over its own payload.
					seen[rank][string(rec.Payload)]++
					// Append, then scribble the grown slice. Payloads are
					// capacity-clamped, so the append must reallocate —
					// writing through the grown slice cannot reach the next
					// record's header.
					g := append(rec.Payload, 0xEE, 0xEE, 0xEE)
					for j := range g {
						g[j] = 0xEE
					}
					// Scribble the payload itself in place.
					for j := range rec.Payload {
						rec.Payload[j] = 0xEE
					}
				})
				for rank, n := range got {
					if n != p*msgs {
						t.Errorf("rank %d received %d records, want %d", rank, n, p*msgs)
					}
					for from := 0; from < p; from++ {
						for i := 0; i < msgs; i++ {
							want := fmt.Sprintf("%d->%d#%d", from, rank, i)
							if c := seen[rank][want]; c != 1 {
								t.Errorf("rank %d: record %q arrived %d times, want once (corrupted by a sibling's mutation?)",
									rank, want, c)
							}
						}
					}
				}
			})
		}
	}
}

// TestSelfEnvelopeSwapsAcrossPolls pins the self-envelope's take-and-swap:
// Poll drains one loopback buffer while self-sends go to the other, so
// consecutive polls decode from alternating buffers and poll N+2 reuses poll
// N's storage — steady-state loopback allocates nothing.
func TestSelfEnvelopeSwapsAcrossPolls(t *testing.T) {
	m := rt.NewMachine(1)
	m.Run(func(r *rt.Rank) {
		box := New(r, NewDirect(1), nil)
		poll := func(tag uint32) *byte {
			want := bytes.Repeat([]byte{byte(tag)}, 32)
			box.SendTagged(0, tag, want)
			var at *byte
			n := box.Poll(func(rec Record) {
				if rec.Tag != tag || !bytes.Equal(rec.Payload, want) {
					t.Errorf("poll %d: got tag %d payload %x", tag, rec.Tag, rec.Payload)
				}
				at = &rec.Payload[0]
			})
			if n != 1 {
				t.Fatalf("poll %d: handled %d records, want 1", tag, n)
			}
			return at
		}
		p1, p2, p3 := poll(1), poll(2), poll(3)
		if p1 == p2 {
			t.Fatal("consecutive polls decoded from one self-envelope buffer")
		}
		if p1 != p3 {
			t.Fatal("poll 3 did not reuse poll 1's self-envelope buffer")
		}
	})
}

// TestSelfSendDuringPollDeliveredNextPoll: a record a handler sends to its
// own rank mid-Poll lands in the swapped-in self-envelope — never delivered
// by the Poll that is running (which would let one handler call feed itself
// without bound), delivered exactly once by the next, and counted pending in
// between.
func TestSelfSendDuringPollDeliveredNextPoll(t *testing.T) {
	m := rt.NewMachine(1)
	m.Run(func(r *rt.Rank) {
		det := termination.New(r)
		box := New(r, NewDirect(1), det)
		box.Send(0, []byte("seed"))
		var got []string
		handle := func(rec Record) {
			got = append(got, string(rec.Payload))
			if string(rec.Payload) == "seed" {
				box.Send(0, []byte("echo"))
			}
		}
		if n := box.Poll(handle); n != 1 || len(got) != 1 || got[0] != "seed" {
			t.Fatalf("first poll handled %d records %q, want just the seed", n, got)
		}
		if p := box.PendingRecords(); p != 1 || box.Idle() {
			t.Fatalf("after first poll: pending=%d idle=%v, want the echo pending", p, box.Idle())
		}
		if det.Sent() != 2 || det.Received() != 1 {
			t.Fatalf("detector S=%d R=%d, want 2/1 while the echo waits", det.Sent(), det.Received())
		}
		if n := box.Poll(handle); n != 1 || len(got) != 2 || got[1] != "echo" {
			t.Fatalf("second poll handled %d records %q, want the echo once", n, got)
		}
		if n := box.Poll(handle); n != 0 || box.PendingRecords() != 0 || !box.Idle() {
			t.Fatalf("third poll handled %d records, pending %d: echo delivered twice?", n, box.PendingRecords())
		}
		if det.Sent() != 2 || det.Received() != 2 {
			t.Fatalf("detector S=%d R=%d, want 2/2", det.Sent(), det.Received())
		}
	})
}

// TestEnvelopePoolRoundTrip checks receiver-side envelope recycling on the
// raw path: a rank that both receives and sends should serve outbound
// aggregation buffers from consumed inbound envelopes (pool hits), with the
// per-Box stats mirrored into the obs registry.
func TestEnvelopePoolRoundTrip(t *testing.T) {
	const p, msgs = 2, 400
	var stats [p]Stats
	m := rt.NewMachine(p)
	m.Run(func(r *rt.Rank) {
		det := termination.New(r)
		box := New(r, NewDirect(p), det, WithFlushBytes(256))
		other := 1 - r.Rank()
		deadline := time.Now().Add(20 * time.Second)
		// Send in waves interleaved with polling, so envelopes consumed from
		// the peer re-enter the pool in time to back later outbound buffers
		// — the steady-state circulation the pool exists for.
		sent := 0
		for {
			for i := 0; i < 20 && sent < msgs; i, sent = i+1, sent+1 {
				box.Send(other, bytes.Repeat([]byte{byte(sent)}, 48))
			}
			box.Poll(discard)
			box.FlushAll()
			if sent == msgs && det.Pump(box.Idle()) {
				break
			}
			if time.Now().After(deadline) {
				panic("round trip did not quiesce")
			}
		}
		stats[r.Rank()] = box.Stats()
	})
	var gets, hits, recycled uint64
	for rank, st := range stats {
		if st.PoolGets == 0 {
			t.Errorf("rank %d: no pool gets recorded", rank)
		}
		if st.PoolHits > st.PoolGets {
			t.Errorf("rank %d: hits %d exceed gets %d", rank, st.PoolHits, st.PoolGets)
		}
		gets += st.PoolGets
		hits += st.PoolHits
		recycled += st.PoolBytesRecycled
	}
	if hits == 0 {
		t.Error("no pool hits across the machine: receiver-side recycling is dead")
	}
	if recycled == 0 {
		t.Error("no bytes recycled: consumed envelopes are not re-entering pools")
	}
	reg := m.Obs()
	if got := reg.PerRank(obs.MBPoolGets, p).Total(); got != gets {
		t.Errorf("obs %s = %d, want %d", obs.MBPoolGets, got, gets)
	}
	if got := reg.PerRank(obs.MBPoolHits, p).Total(); got != hits {
		t.Errorf("obs %s = %d, want %d", obs.MBPoolHits, got, hits)
	}
	if got := reg.PerRank(obs.MBPoolRecycledBytes, p).Total(); got != recycled {
		t.Errorf("obs %s = %d, want %d", obs.MBPoolRecycledBytes, got, recycled)
	}
	if free := reg.Gauge(obs.MBPoolFree).Value(); free < 0 {
		t.Errorf("pool-free gauge negative: %d", free)
	}
}

// cleanTransport is a pass-through Transport: its mere installation must
// latch ExclusiveDelivery false and disable inbound recycling forever.
type cleanTransport struct{}

func (cleanTransport) Fate(_, _ int, _ uint8, _ uint64, _ int) rt.Fate { return rt.Fate{} }
func (cleanTransport) Stall(int) time.Duration                         { return 0 }

// TestRecyclingDisabledOnceTransportInstalled pins the safety gate: after
// any fault-injecting Transport has existed on the machine — even a
// pass-through one, even if since removed — a drained payload is no longer
// provably exclusive, so raw-path envelope recycling must stay off.
func TestRecyclingDisabledOnceTransportInstalled(t *testing.T) {
	const p = 2
	m := rt.NewMachine(p)
	m.SetTransport(cleanTransport{})
	m.SetTransport(nil) // removal must NOT re-enable recycling
	var stats [p]Stats
	m.Run(func(r *rt.Rank) {
		if r.ExclusiveDelivery() {
			t.Errorf("rank %d: ExclusiveDelivery true after a transport was installed", r.Rank())
		}
		det := termination.New(r)
		box := New(r, NewDirect(p), det, WithFlushBytes(256))
		other := 1 - r.Rank()
		for i := 0; i < 200; i++ {
			box.Send(other, bytes.Repeat([]byte{byte(i)}, 48))
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			box.Poll(discard)
			box.FlushAll()
			if det.Pump(box.Idle()) {
				break
			}
			if time.Now().After(deadline) {
				panic("exchange did not quiesce")
			}
		}
		stats[r.Rank()] = box.Stats()
	})
	for rank, st := range stats {
		if st.PoolBytesRecycled != 0 {
			t.Errorf("rank %d: %d bytes recycled on the raw path under a transport (aliasing hazard)",
				rank, st.PoolBytesRecycled)
		}
		if st.PoolHits != 0 {
			t.Errorf("rank %d: %d pool hits with recycling disabled", rank, st.PoolHits)
		}
	}
}

// TestReliableRecyclesAggregationBuffersUnderTransport checks the one
// recycling path that stays legal under fault injection: reliable-mode
// aggregation buffers are copied into frames at ship time, so they return
// to the pool even when ExclusiveDelivery is false. (Frames themselves are
// never pooled; see reliable.go.)
func TestReliableRecyclesAggregationBuffersUnderTransport(t *testing.T) {
	const p = 2
	m := rt.NewMachine(p)
	m.SetTransport(cleanTransport{})
	var stats [p]Stats
	m.Run(func(r *rt.Rank) {
		det := termination.New(r)
		box := New(r, NewDirect(p), det, WithReliable(), WithFlushBytes(256))
		other := 1 - r.Rank()
		for i := 0; i < 200; i++ {
			box.Send(other, bytes.Repeat([]byte{byte(i)}, 48))
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			box.Poll(discard)
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
	var hits, recycled uint64
	for _, st := range stats {
		hits += st.PoolHits
		recycled += st.PoolBytesRecycled
	}
	if hits == 0 || recycled == 0 {
		t.Errorf("reliable path recycled nothing under a transport (hits=%d, bytes=%d); "+
			"post-frame-copy buffers are exclusively the sender's and must be pooled", hits, recycled)
	}
}

// TestEnvPoolBounds covers the free-list edge cases directly.
func TestEnvPoolBounds(t *testing.T) {
	var p envPool
	if b := p.get(); b != nil {
		t.Fatalf("empty pool returned %v", b)
	}
	if p.put(nil) {
		t.Fatal("pool accepted a zero-capacity buffer")
	}
	for i := 0; i < envPoolCap; i++ {
		if !p.put(make([]byte, 8)) {
			t.Fatalf("pool rejected buffer %d below cap", i)
		}
	}
	if p.put(make([]byte, 8)) {
		t.Fatal("pool accepted a buffer beyond envPoolCap")
	}
	if p.size() != envPoolCap {
		t.Fatalf("size = %d, want %d", p.size(), envPoolCap)
	}
	b := p.get()
	if b == nil || len(b) != 0 || cap(b) != 8 {
		t.Fatalf("get returned len=%d cap=%d, want empty with retained capacity", len(b), cap(b))
	}
}
