package check

import (
	"testing"

	"havoqgt/internal/mailbox"
	"havoqgt/internal/obs"
	"havoqgt/internal/rt"
)

// pollHostile injects one raw envelope into rank 0's transport inbox and
// polls a mailbox over a p-rank machine, returning the delivered records
// (payloads copied out of the handler, as the mailbox.Record contract
// requires for anything kept) and the box stats. Poll must never panic,
// whatever the envelope holds. The handler also scribbles over every payload
// after copying it: decoding is in place, so a mutation must stay inside its
// own record and never change what a later record of the envelope decodes
// to.
func pollHostile(p int, topo mailbox.Topology, payload []byte) (recs []mailbox.Record, st mailbox.Stats, reg *obs.Registry) {
	m := rt.NewMachine(p)
	reg = m.Obs()
	m.Run(func(r *rt.Rank) {
		if r.Rank() != 0 {
			return
		}
		r.Send(0, rt.KindMailbox, 0, append([]byte(nil), payload...))
		box := mailbox.New(r, topo, nil)
		box.Poll(func(rec mailbox.Record) {
			recs = append(recs, mailbox.Record{Tag: rec.Tag, Payload: append([]byte(nil), rec.Payload...)})
			for i := range rec.Payload {
				rec.Payload[i] = 0xFF
			}
		})
		st = box.Stats()
	})
	return recs, st, reg
}

// TestHostileEnvelopeCorpus drives Box.Poll with every adversarial envelope:
// truncated, oversized-length, zero-length, and misrouted-dest records. The
// pre-hardening decoder panicked on the oversized and truncated entries via
// a slice out-of-range; now each malformed datum is counted and skipped and
// well-formed records around the damage still arrive.
func TestHostileEnvelopeCorpus(t *testing.T) {
	for _, h := range HostileCorpus() {
		t.Run(h.Name, func(t *testing.T) {
			topo := mailbox.NewDirect(HostileCorpusRanks)
			recs, st, reg := pollHostile(HostileCorpusRanks, topo, h.Payload)
			if len(recs) != h.WantDelivered {
				t.Fatalf("delivered %d records, want %d", len(recs), h.WantDelivered)
			}
			if st.DecodeErrors != h.WantErrors {
				t.Fatalf("DecodeErrors = %d, want %d", st.DecodeErrors, h.WantErrors)
			}
			if got := reg.Snapshot().Counter(obs.MBDecodeErrors); got != h.WantErrors {
				t.Fatalf("obs %s = %d, want %d", obs.MBDecodeErrors, got, h.WantErrors)
			}
			// Accounting stays coherent even on hostile input.
			if st.RecordsDelivered != uint64(h.WantDelivered) {
				t.Fatalf("RecordsDelivered = %d, want %d", st.RecordsDelivered, h.WantDelivered)
			}
		})
	}
}

// TestHostileCorpusAcrossTopologies re-runs the corpus under 2D and 3D
// routing: misrouted dests must be rejected before NextHop sees them (an
// out-of-range dest would otherwise drive grid arithmetic off the topology).
func TestHostileCorpusAcrossTopologies(t *testing.T) {
	for _, name := range Topologies() {
		topo, err := mailbox.ByName(name, HostileCorpusRanks)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range HostileCorpus() {
			recs, st, _ := pollHostile(HostileCorpusRanks, topo, h.Payload)
			if len(recs) != h.WantDelivered || st.DecodeErrors != h.WantErrors {
				t.Fatalf("%s/%s: delivered=%d errors=%d, want %d/%d",
					name, h.Name, len(recs), st.DecodeErrors, h.WantDelivered, h.WantErrors)
			}
		}
	}
}

// TestEnvelopeFramingMatchesMailbox proves check.Envelope and the mailbox
// agree on framing: an envelope built here round-trips through Poll with the
// exact payload bytes.
func TestEnvelopeFramingMatchesMailbox(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), {}, []byte("bravo-charlie")}
	env := Envelope(
		EnvRecord{Dest: 0, Payload: payloads[0]},
		EnvRecord{Dest: 0, Payload: payloads[1]},
		EnvRecord{Dest: 0, Payload: payloads[2]},
	)
	recs, st, _ := pollHostile(2, mailbox.NewDirect(2), env)
	if len(recs) != len(payloads) {
		t.Fatalf("delivered %d records, want %d", len(recs), len(payloads))
	}
	for i, rec := range recs {
		if string(rec.Payload) != string(payloads[i]) {
			t.Fatalf("record %d = %q, want %q", i, rec.Payload, payloads[i])
		}
	}
	if st.DecodeErrors != 0 {
		t.Fatalf("well-formed envelope counted %d decode errors", st.DecodeErrors)
	}
}
