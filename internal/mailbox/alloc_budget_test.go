package mailbox

// Steady-state allocation budgets for the message-plane hot paths. These are
// the enforceable artifact of the zero-allocation rework (`make bench-smoke`
// runs them in CI): each test warms a path to steady state, then measures
// testing.AllocsPerRun over full send→deliver→drain cycles and fails if the
// per-cycle average creeps above a small epsilon. Under the race detector
// the paths still execute but the numeric assertions are skipped
// (raceEnabled; the instrumented runtime allocates on its own schedule).

import (
	"encoding/binary"
	"runtime"
	"testing"

	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// budgetEpsilon tolerates stray runtime-internal allocations (GC metadata,
// background goroutine wakeups) that AllocsPerRun can observe; anything
// above it means a real per-cycle allocation has crept back into the path.
const budgetEpsilon = 0.1

// TestAllocBudgetLoopback pins the delivery half: at steady state a
// 64-record Send+Poll cycle on the loopback path must allocate nothing —
// records are framed into the self-envelope, whose two buffers swap at every
// Poll, and handed to the handler in place; no envelope buffers are
// involved.
func TestAllocBudgetLoopback(t *testing.T) {
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		box := New(r, NewDirect(1), termination.New(r))
		payload := make([]byte, benchPayloadBytes)
		var bytes int
		handle := func(rec Record) { bytes += len(rec.Payload) }
		cycle := func() {
			for i := 0; i < 64; i++ {
				box.Send(0, payload)
			}
			bytes = 0
			if got := box.Poll(handle); got != 64 || bytes != 64*benchPayloadBytes {
				t.Fatalf("loopback poll handled %d records (%d bytes), want 64 (%d bytes)",
					got, bytes, 64*benchPayloadBytes)
			}
		}
		for i := 0; i < 8; i++ {
			cycle() // grow both self-envelope buffers
		}
		avg := testing.AllocsPerRun(100, cycle)
		if raceEnabled {
			t.Skipf("race detector active: measured %.2f allocs/cycle, not asserted", avg)
		}
		if avg > budgetEpsilon {
			t.Errorf("loopback steady state allocates %.2f per 64-record cycle, want ~0", avg)
		}
	})
}

// TestAllocBudgetDecodeDeliver pins the receive half: draining and decoding
// a multi-record envelope into handler calls must allocate nothing at steady
// state (records are decoded in place, and the drained envelope is recycled
// into the box's pool).
func TestAllocBudgetDecodeDeliver(t *testing.T) {
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		box := New(r, NewDirect(1), nil)
		// One envelope holding 32 records addressed to this rank.
		const recs = 32
		env := make([]byte, 0, recs*(recordHeader+benchPayloadBytes))
		var hdr [recordHeader]byte
		for i := 0; i < recs; i++ {
			binary.LittleEndian.PutUint32(hdr[0:], 0) // dest: self
			binary.LittleEndian.PutUint32(hdr[4:], uint32(i))
			binary.LittleEndian.PutUint32(hdr[8:], benchPayloadBytes)
			env = append(env, hdr[:]...)
			env = append(env, make([]byte, benchPayloadBytes)...)
		}
		var tags uint32
		handle := func(rec Record) { tags += rec.Tag }
		cycle := func() {
			r.Send(0, rt.KindMailbox, 0, env)
			tags = 0
			if got := box.Poll(handle); got != recs || tags != recs*(recs-1)/2 {
				t.Fatalf("poll handled %d records (tag sum %d), want %d (%d)",
					got, tags, recs, recs*(recs-1)/2)
			}
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		avg := testing.AllocsPerRun(100, cycle)
		if raceEnabled {
			t.Skipf("race detector active: measured %.2f allocs/cycle, not asserted", avg)
		}
		if avg > budgetEpsilon {
			t.Errorf("decode/deliver steady state allocates %.2f per envelope, want ~0", avg)
		}
	})
}

// TestAllocBudgetRoutedSteadyState pins the full duplex cycle on a 2-rank
// machine: once envelope buffers circulate (each rank's consumed inbound
// envelopes back its outbound aggregation buffers), a ship-sized burst of
// records costs at most a handful of allocations machine-wide. AllocsPerRun
// cannot be used here — both ranks run concurrently and it counts global
// mallocs — so the main goroutine brackets a lockstep measured phase with
// runtime.ReadMemStats while the ranks coordinate over channels.
func TestAllocBudgetRoutedSteadyState(t *testing.T) {
	const p = 2
	const burst = 64 // records per cycle per rank; flush threshold 1 KiB
	const warmRounds, rounds = 32, 200
	warmed := make(chan struct{}, p)
	start := make(chan struct{})
	var ms1, ms2 runtime.MemStats
	m := rt.NewMachine(p)
	go func() {
		for i := 0; i < p; i++ {
			<-warmed
		}
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		close(start)
	}()
	m.Run(func(r *rt.Rank) {
		det := termination.New(r)
		box := New(r, NewDirect(p), det, WithFlushBytes(1024))
		other := 1 - r.Rank()
		payload := make([]byte, benchPayloadBytes)
		cycle := func() {
			for i := 0; i < burst; i++ {
				box.Send(other, payload)
			}
			box.FlushAll()
			box.Poll(discard)
		}
		drain := func() {
			for !det.Pump(box.Idle()) {
				box.Poll(discard)
				box.FlushAll()
			}
		}
		// Warm until buffer circulation is established, ending fully
		// quiescent (empty inboxes, empty aggregation buffers, full pools).
		for i := 0; i < warmRounds; i++ {
			cycle()
		}
		drain()
		warmed <- struct{}{}
		<-start
		for i := 0; i < rounds; i++ {
			cycle()
		}
		drain()
	})
	runtime.ReadMemStats(&ms2)
	perBurst := float64(ms2.Mallocs-ms1.Mallocs) / rounds
	t.Logf("routed steady state: %.2f mallocs per %d-record burst pair (machine-wide)", perBurst, burst)
	if raceEnabled {
		t.Skipf("race detector active: measured %.2f mallocs/burst, not asserted", perBurst)
	}
	// Pre-pooling, one burst pair cost well over 2*burst mallocs (a payload
	// copy per delivered record on each side, plus envelope buffers, Msg
	// queues, and per-poll delivered slices). Budget: at least a 5x margin
	// under that floor, machine-wide.
	if perBurst > float64(2*burst)/5 {
		t.Errorf("routed steady state allocates %.1f per %d-record burst pair, want < %.0f (5x under the pre-pooling floor)",
			perBurst, burst, float64(2*burst)/5)
	}
}
