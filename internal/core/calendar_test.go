package core

import (
	"testing"
	"testing/quick"

	"havoqgt/internal/graph"
)

// bucketAlgo schedules orderVisitors on the calendar with Bucket = prio.
type bucketAlgo struct{ orderAlgo }

func (a *bucketAlgo) Bucket(v orderVisitor) uint64 { return uint64(v.prio) }

var _ BucketAlgorithm[orderVisitor] = (*bucketAlgo)(nil)

func newTestCalendar() *calendar[orderVisitor] {
	return newCalendar[orderVisitor](&bucketAlgo{})
}

// calModel is the reference the calendar is checked against: one LIFO stack
// per bucket, drained lowest bucket first.
type calModel struct {
	stacks map[uint64][]orderVisitor
	n      int
}

func newCalModel() *calModel { return &calModel{stacks: make(map[uint64][]orderVisitor)} }

func (m *calModel) push(v orderVisitor) {
	b := uint64(v.prio)
	m.stacks[b] = append(m.stacks[b], v)
	m.n++
}

func (m *calModel) pop() orderVisitor {
	first := true
	var low uint64
	for b := range m.stacks {
		if first || b < low {
			low, first = b, false
		}
	}
	s := m.stacks[low]
	v := s[len(s)-1]
	if len(s) == 1 {
		delete(m.stacks, low)
	} else {
		m.stacks[low] = s[:len(s)-1]
	}
	m.n--
	return v
}

func (m *calModel) clear() {
	clear(m.stacks)
	m.n = 0
}

// TestQuickCalendarPopsLowestBucket: for any interleaving of pushes and pops,
// a pop never returns a visitor from a bucket above the lowest one present.
func TestQuickCalendarPopsLowestBucket(t *testing.T) {
	f := func(raw []uint16) bool {
		c := newTestCalendar()
		present := map[uint32]int{}
		for i, r := range raw {
			if r%3 == 0 && c.n > 0 {
				v := c.pop()
				for b, k := range present {
					if k > 0 && b < v.prio {
						return false
					}
				}
				present[v.prio]--
				continue
			}
			v := orderVisitor{v: graph.Vertex(i), prio: uint32(r % 16)}
			c.push(v)
			present[v.prio]++
		}
		for c.n > 0 {
			v := c.pop()
			for b, k := range present {
				if k > 0 && b < v.prio {
					return false
				}
			}
			present[v.prio]--
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCalendarExactlyOnceAcrossChunks pushes several chunks' worth of
// visitors into interleaved buckets, so every bucket spans chunk boundaries,
// and requires each visitor to pop exactly once, lowest bucket first.
func TestCalendarExactlyOnceAcrossChunks(t *testing.T) {
	const buckets = 3
	total := 3*chunkLen + chunkLen/2
	c := newTestCalendar()
	for i := 0; i < total; i++ {
		c.push(orderVisitor{v: graph.Vertex(i), prio: uint32(i % buckets)})
	}
	if c.n != total {
		t.Fatalf("n = %d after %d pushes", c.n, total)
	}
	seen := make([]bool, total)
	prev := uint32(0)
	for c.n > 0 {
		v := c.pop()
		if v.prio < prev {
			t.Fatalf("bucket %d popped after bucket %d", v.prio, prev)
		}
		prev = v.prio
		if seen[v.v] {
			t.Fatalf("visitor %d popped twice", v.v)
		}
		seen[v.v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("visitor %d never popped", i)
		}
	}
	if len(c.order) != 0 || len(c.buckets) != 0 {
		t.Fatalf("drained calendar still holds %d buckets (%d in map)", len(c.order), len(c.buckets))
	}
}

// TestCalendarMatchesModel drives pushes and partial drains that straddle
// chunk boundaries in one bucket while others come and go, and checks every
// pop against the LIFO-per-bucket model.
func TestCalendarMatchesModel(t *testing.T) {
	c, m := newTestCalendar(), newCalModel()
	id := 0
	push := func(b uint32, k int) {
		for i := 0; i < k; i++ {
			v := orderVisitor{v: graph.Vertex(id), prio: b}
			id++
			c.push(v)
			m.push(v)
		}
	}
	pop := func(k int) {
		for i := 0; i < k && m.n > 0; i++ {
			if got, want := c.pop(), m.pop(); got != want {
				t.Fatalf("pop %d: got %+v, want %+v", id, got, want)
			}
		}
	}
	push(5, chunkLen+1)   // one past the first chunk
	pop(2)                // back across the boundary
	push(5, 2*chunkLen)   // two more full chunks
	push(2, 10)           // a lower bucket jumps the queue
	pop(chunkLen + 20)    // drain bucket 2, then into bucket 5
	push(9, chunkLen)     // a higher bucket waits
	push(5, chunkLen/2+3) // refill the partly drained bucket
	pop(m.n)
	if c.n != 0 {
		t.Fatalf("calendar reports %d queued after the model drained", c.n)
	}
}

// TestCalendarClearThenReuse: clear drops everything, including multi-chunk
// buckets, and the calendar then behaves like a fresh one.
func TestCalendarClearThenReuse(t *testing.T) {
	c, m := newTestCalendar(), newCalModel()
	for i := 0; i < 2*chunkLen+7; i++ {
		c.push(orderVisitor{v: graph.Vertex(i), prio: uint32(i % 4)})
	}
	c.pop()
	c.clear()
	if c.n != 0 || len(c.order) != 0 || len(c.buckets) != 0 || c.last != nil {
		t.Fatalf("clear left n=%d order=%d buckets=%d last=%v", c.n, len(c.order), len(c.buckets), c.last)
	}
	if len(c.free) > maxFreeChunks {
		t.Fatalf("free list holds %d chunks, bound is %d", len(c.free), maxFreeChunks)
	}
	for i := 0; i < chunkLen+5; i++ {
		v := orderVisitor{v: graph.Vertex(i), prio: uint32(3 - i%3)}
		c.push(v)
		m.push(v)
	}
	for m.n > 0 {
		if got, want := c.pop(), m.pop(); got != want {
			t.Fatalf("after clear: got %+v, want %+v", got, want)
		}
	}
}

// TestCalendarFreeListBounded: draining a backlog of more than maxFreeChunks
// full chunks keeps at most maxFreeChunks of them for reuse.
func TestCalendarFreeListBounded(t *testing.T) {
	c := newTestCalendar()
	for i := 0; i < (maxFreeChunks+3)*chunkLen; i++ {
		c.push(orderVisitor{v: graph.Vertex(i)})
	}
	for c.n > 0 {
		c.pop()
	}
	if len(c.free) != maxFreeChunks {
		t.Fatalf("free list holds %d chunks after the drain, want the bound %d", len(c.free), maxFreeChunks)
	}
}

// TestQueueCancelClearsCalendar: Cancel on a calendar-scheduled queue leaves
// no local work behind.
func TestQueueCancelClearsCalendar(t *testing.T) {
	q := &Queue[orderVisitor]{algo: &bucketAlgo{}, cal: newTestCalendar()}
	for i := 0; i < chunkLen+1; i++ {
		q.schedPush(orderVisitor{v: graph.Vertex(i)})
	}
	q.Cancel()
	if !q.LocalIdle() || q.schedLen() != 0 {
		t.Fatalf("cancelled queue still holds %d visitors", q.schedLen())
	}
}

// budgetEpsilon tolerates stray runtime-internal allocations (GC metadata,
// background goroutine wakeups) that AllocsPerRun can observe.
const budgetEpsilon = 0.1

// TestAllocBudgetCalendar pins the calendar's steady state: once a
// workload's peak has been seen, push/pop cycles that cross chunk
// boundaries, open and retire buckets, and advance the lowest bucket (as
// delta-stepping does) allocate nothing. Follows the mailbox
// TestAllocBudget* convention, including the race-build split.
func TestAllocBudgetCalendar(t *testing.T) {
	cases := []struct {
		name  string
		cycle func(c *calendar[orderVisitor], round uint32)
	}{
		{"one-bucket-stack", func(c *calendar[orderVisitor], _ uint32) {
			for i := 0; i < 3*chunkLen; i++ {
				c.push(orderVisitor{v: graph.Vertex(i)})
			}
			for c.n > 0 {
				c.pop()
			}
		}},
		{"interleaved-buckets", func(c *calendar[orderVisitor], _ uint32) {
			for i := 0; i < 2*chunkLen; i++ {
				c.push(orderVisitor{v: graph.Vertex(i), prio: uint32(i % 5)})
			}
			for c.n > 0 {
				c.pop()
			}
		}},
		{"advancing-buckets", func(c *calendar[orderVisitor], round uint32) {
			base := round * 4
			for i := 0; i < 256; i++ {
				c.push(orderVisitor{v: graph.Vertex(i), prio: base + uint32(i%4)})
			}
			for c.n > 0 {
				c.pop()
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCalendar()
			round := uint32(0)
			for ; round < 8; round++ {
				tc.cycle(c, round) // reach the peak chunk and bucket counts
			}
			avg := testing.AllocsPerRun(50, func() {
				tc.cycle(c, round)
				round++
			})
			if raceEnabled {
				t.Skipf("race detector active: measured %.2f allocs/cycle, not asserted", avg)
			}
			if avg > budgetEpsilon {
				t.Errorf("calendar steady state allocates %.2f per cycle, want ~0", avg)
			}
		})
	}
}

// FuzzCalendar checks the calendar against calModel over arbitrary op
// streams. Each op is two bytes (op, arg): push one visitor, push a run of
// up to 16K visitors (crossing chunk boundaries), pop up to arg+1 visitors,
// or clear. The calendar must agree with the model on every pop and on its
// length after every op, and must end fully drained.
func FuzzCalendar(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x03, 0x04, 0x01, 0x02, 0xff})
	f.Add([]byte{0x05, 0x40, 0x02, 0x10, 0x01, 0x05, 0x03, 0x00, 0x09, 0x3f})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c, m := newTestCalendar(), newCalModel()
		id := graph.Vertex(0)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			b := uint32(op>>2) % 8
			switch op % 4 {
			case 0:
				v := orderVisitor{v: id, prio: uint32(arg) % 8}
				id++
				c.push(v)
				m.push(v)
			case 1:
				for k := 0; k < (arg+1)*64; k++ {
					v := orderVisitor{v: id, prio: b}
					id++
					c.push(v)
					m.push(v)
				}
			case 2:
				for k := 0; k <= arg && m.n > 0; k++ {
					if got, want := c.pop(), m.pop(); got != want {
						t.Fatalf("op %d: pop got %+v, want %+v", i/2, got, want)
					}
				}
			case 3:
				c.clear()
				m.clear()
			}
			if c.n != m.n {
				t.Fatalf("op %d: calendar holds %d, model %d", i/2, c.n, m.n)
			}
		}
		for m.n > 0 {
			if got, want := c.pop(), m.pop(); got != want {
				t.Fatalf("drain: got %+v, want %+v", got, want)
			}
		}
		if c.n != 0 || len(c.order) != 0 || len(c.buckets) != 0 {
			t.Fatalf("drained calendar: n=%d order=%d buckets=%d", c.n, len(c.order), len(c.buckets))
		}
	})
}
