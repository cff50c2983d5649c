package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/workload"
)

// TestScriptedVerbCounts runs a hand-scripted Insert/Search sequence on
// the deterministic fabric and checks the instrumented verb counters
// against exact expectations: the counts are what the paper's cost
// model predicts, not merely close to it. The paper's two-phase shape
// is pinned with FusedCommit off, and the fused shape under the
// default config.
func TestScriptedVerbCounts(t *testing.T) {
	const n = 20
	paper := scriptedVerbSegments(t, n, func(cfg *core.Config) { cfg.FusedCommit = false })

	// INSERT of a fresh key: bucket-pair batch (2 reads), {KV, 2
	// deltas} batch (3 writes), commit CAS, Meta-hint repair post (1
	// write). Doorbells: 2 batches + CAS + post = 4.
	checkInsertVerbs(t, "two-phase", paper["insert"], n, 4)

	// SEARCH of a just-written key hits the slot-address cache: one
	// {KV, slot-Atomic} validation batch (2 reads, 1 doorbell) and
	// nothing else.
	sea := paper["search"]
	if got := sea.OpCount(rdma.OpRead); got != 2*n {
		t.Errorf("search reads = %d, want %d", got, 2*n)
	}
	if got := sea.OpCount(rdma.OpWrite) + sea.OpCount(rdma.OpCAS); got != 0 {
		t.Errorf("cache-hit search issued %d writes/CAS, want 0", got)
	}
	if got := sea.Doorbells(); got != n {
		t.Errorf("search doorbells = %d, want %d", got, n)
	}
	if got := sea.Calls[obs.CallBatch].Count; got != n {
		t.Errorf("search batch calls = %d, want %d", got, n)
	}

	// Default config: the commit CAS rides the {KV, deltas} batch, so
	// the same verbs take 3 doorbells — bucket batch, fused batch and
	// the Meta-hint post.
	fused := scriptedVerbSegments(t, n, nil)
	checkInsertVerbs(t, "fused", fused["insert"], n, 3)
}

// checkInsertVerbs asserts the per-INSERT verb mix of a fresh-key
// segment: 2 reads, 4 writes and 1 CAS per op in either shape, and
// the given doorbells per op.
func checkInsertVerbs(t *testing.T, shape string, d obs.FabricSnapshot, n, doorbells int) {
	t.Helper()
	if got := d.OpCount(rdma.OpRead); got != uint64(2*n) {
		t.Errorf("%s insert reads = %d, want %d", shape, got, 2*n)
	}
	if got := d.OpCount(rdma.OpWrite); got != uint64(4*n) {
		t.Errorf("%s insert writes = %d, want %d", shape, got, 4*n)
	}
	if got := d.OpCount(rdma.OpCAS); got != uint64(n) {
		t.Errorf("%s insert CAS = %d, want %d", shape, got, n)
	}
	if got := d.Doorbells(); got != uint64(doorbells*n) {
		t.Errorf("%s insert doorbells = %d, want %d", shape, got, doorbells*n)
	}
}

// scriptedVerbSegments inserts then searches n fresh keys with one
// client and returns the fabric counters of each segment by name.
func scriptedVerbSegments(t *testing.T, n int, mutate func(*core.Config)) map[string]obs.FabricSnapshot {
	t.Helper()
	o := Options{Clients: 1, CNs: 1, OpsPerClient: n, KVSize: 128}
	r, err := newAcesoRun(o, acesoConfig(o, 100, mutate))
	if err != nil {
		t.Fatal(err)
	}
	defer r.shutdown()

	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = workload.MicroKey(0, uint64(i))
	}
	segs := make(map[string]obs.FabricSnapshot)
	var opErr error
	done := false
	r.spawn(0, "scripted", func(c kvClient) {
		defer func() { done = true }()
		// Open the DATA/DELTA blocks first so allocation RPCs and
		// reused-block reads stay out of the counted segments.
		wk := workload.MicroKey(0, uint64(n))
		if opErr = c.Insert(wk, workload.Value(wk, o.KVSize)); opErr != nil {
			return
		}
		seg := func(name string, fn func(k []byte) error) {
			if opErr != nil {
				return
			}
			before := r.fm.Snapshot()
			for _, k := range keys {
				if err := fn(k); err != nil {
					opErr = fmt.Errorf("%s %q: %w", name, k, err)
					return
				}
			}
			segs[name] = r.fm.Snapshot().Sub(before)
		}
		seg("insert", func(k []byte) error { return c.Insert(k, workload.Value(k, o.KVSize)) })
		seg("search", func(k []byte) error { _, err := c.Search(k); return err })
	})
	eng := r.pl.Engine()
	limit := eng.Now() + time.Minute
	for !done && eng.Now() < limit {
		eng.Run(eng.Now() + time.Millisecond)
	}
	if !done {
		t.Fatal("scripted client stalled")
	}
	if opErr != nil {
		t.Fatal(opErr)
	}
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2", len(segs))
	}
	return segs
}

// TestVerbsExperimentWithinTolerance runs the registered "verbs"
// experiment end to end and asserts every measured figure stays within
// the documented 10% tolerance of the cost model.
func TestVerbsExperimentWithinTolerance(t *testing.T) {
	res, err := Run("verbs", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 || len(res.Series)%2 != 0 {
		t.Fatalf("verbs result has %d series, want measured/model pairs", len(res.Series))
	}
	for i := 0; i < len(res.Series); i += 2 {
		meas, model := res.Series[i], res.Series[i+1]
		for j, got := range meas.Values {
			want := model.Values[j]
			dev := got - want
			if dev < 0 {
				dev = -dev
			}
			if want == 0 {
				if got > 0.1 {
					t.Errorf("%s %s = %.3f, model 0", meas.Name, meas.Labels[j], got)
				}
				continue
			}
			if dev/want > 0.10 {
				t.Errorf("%s %s = %.3f, model %.0f (deviation %.1f%%)",
					meas.Name, meas.Labels[j], got, want, dev/want*100)
			}
		}
	}
}
