//go:build go1.24

package engine_test

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"havoqgt/internal/engine"
)

// TestCompletedQueryResultCollectable: once every rank loop has passed a
// query's control events, the engine holds nothing that reaches the query —
// its Result (the per-vertex arrays) is garbage as soon as the caller drops
// its ticket. Covers a plain completion and a cancelled drain (whose evCancel
// event arrives after the start event), and checks the engine keeps serving
// after compacting its control log.
func TestCompletedQueryResultCollectable(t *testing.T) {
	e, _, _ := buildEngine(t, 8, 4, "1d", engine.Options{})
	defer e.Close()

	run := func(spec engine.Spec, cancel bool) weak.Pointer[engine.Result] {
		tk, err := e.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if cancel {
			tk.Cancel()
		}
		return weak.Make(tk.Wait())
	}
	results := []weak.Pointer[engine.Result]{
		run(engine.Spec{Algo: engine.AlgoBFS, Source: 1}, false),
		run(engine.Spec{Algo: engine.AlgoSSSP, Source: 1}, true),
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, res := range results {
		for res.Value() != nil {
			if time.Now().After(deadline) {
				t.Fatalf("query %d: result still reachable after completion (engine retains it)", i)
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
	tk, err := e.Submit(engine.Spec{Algo: engine.AlgoCC})
	if err != nil {
		t.Fatalf("Submit after compaction: %v", err)
	}
	if res := tk.Wait(); res.Components == 0 {
		t.Fatal("CC after log compaction found no components")
	}
}
