package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	aceso "repro"
	"repro/internal/stats"
)

// smallSim is a quick simnet workload with every op class.
func smallSim(clients int, fail bool) spec {
	return spec{name: "test", clients: clients, keys: 2000, window: 200 * time.Millisecond,
		frac: [numClasses]float64{0.45, 0.40, 0.075, 0.075}, theta: 0.99, fail: fail}
}

// measureOnce sets up s, measures one simnet window and checks every op.
func measureOnce(t *testing.T, s spec, rec *recorder) (*env, *result) {
	t.Helper()
	o := options{seed: 7, seconds: 1, fabric: aceso.FabricSim}
	e, err := setup(s, o, rec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if e.h != nil {
			e.close()
		}
	})
	res, err := e.measure(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d ops failed; first: %s", res.failed, res.attempted, res.firstErr)
	}
	return e, res
}

func sameHist(t *testing.T, what string, a, b *stats.Histogram) {
	t.Helper()
	if a.Count() != b.Count() || a.Mean() != b.Mean() || a.Min() != b.Min() || a.Max() != b.Max() {
		t.Errorf("%s: n/mean/min/max %d/%v/%v/%v vs %d/%v/%v/%v", what,
			a.Count(), a.Mean(), a.Min(), a.Max(), b.Count(), b.Mean(), b.Min(), b.Max())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		if a.Percentile(q) != b.Percentile(q) {
			t.Errorf("%s: p%g %v vs %v", what, q*100, a.Percentile(q), b.Percentile(q))
		}
	}
}

// TestWrappersFaithful checks that the recording platform and ctx
// wrappers do not change the program: a simnet run through them and one
// through plain aceso.Open give bit-identical virtual latencies, verb
// counts, write-path and cache counters, and recovery timings.
func TestWrappersFaithful(t *testing.T) {
	s := smallSim(2, true)
	_, plain := measureOnce(t, s, nil)
	rec := newRecorder()
	_, traced := measureOnce(t, s, rec)

	if plain.ops != traced.ops || plain.attempted != traced.attempted {
		t.Errorf("ops %d/%d vs %d/%d", plain.ops, plain.attempted, traced.ops, traced.attempted)
	}
	for c := range plain.lat {
		sameHist(t, classNames[c], plain.lat[c], traced.lat[c])
	}
	sameHist(t, "degraded get", plain.degraded, traced.degraded)
	if plain.d.cli != traced.d.cli {
		t.Errorf("client stats differ:\n%+v\n%+v", plain.d.cli, traced.d.cli)
	}
	if plain.d.write != traced.d.write || plain.d.cache != traced.d.cache {
		t.Errorf("write/cache counters differ:\n%+v %+v\n%+v %+v", plain.d.write, plain.d.cache, traced.d.write, traced.d.cache)
	}
	if plain.d.mn != traced.d.mn || plain.d.reclaimed != traced.d.reclaimed {
		t.Errorf("MN counters differ:\n%+v\n%+v", plain.d.mn, traced.d.mn)
	}
	if *plain.recovery != *traced.recovery {
		t.Errorf("recovery differs:\n%+v\n%+v", *plain.recovery, *traced.recovery)
	}
	if plain.d.write.Fused == 0 || plain.d.cli.CASIssued == 0 || plain.degraded.Count() == 0 {
		t.Errorf("workload did not exercise fused commits, CAS or degraded reads: %+v", plain.d.write)
	}
	if rec.cls[clsGet].n == 0 || len(rec.spans) == 0 || rec.rpcN == 0 {
		t.Errorf("traced run recorded nothing: %d gets, %d spans, %d handler calls", rec.cls[clsGet].n, len(rec.spans), rec.rpcN)
	}
}

// TestWindowCountsCoverSameOps checks that cluster-cumulative write-path
// counters are windowed like the ops: every fused or two-phase commit
// attempt in the window belongs to a write in the window (or a retry of
// one, or an op straddling a window edge). Counting from cluster start
// would add the preload's inserts.
func TestWindowCountsCoverSameOps(t *testing.T) {
	s := smallSim(1, false)
	s.theta = 0
	_, res := measureOnce(t, s, nil)
	writes := res.lat[clsUpdate].Count() + res.lat[clsInsert].Count() + res.lat[clsDelete].Count()
	commits := res.d.write.Fused + res.d.write.Fallbacks()
	if commits == 0 || writes == 0 {
		t.Fatalf("no writes measured: %d commits, %d writes", commits, writes)
	}
	if limit := writes + res.d.cli.CASRetries + 2*uint64(s.clients); commits > limit {
		t.Fatalf("%d commit attempts in a window of %d writes and %d retries", commits, writes, res.d.cli.CASRetries)
	}
}

// TestCheckerCatchesWrongValues checks that the result checker flags a
// stale value, a foreign key's value, a torn value and a wrong NotFound.
func TestCheckerCatchesWrongValues(t *testing.T) {
	st := &stream{keys: [][]byte{[]byte("a"), []byte("b")}, keyID: []uint32{0, 1}}
	r := newRunner(nil, st, 2, 0, 1, &window{}, &failState{})
	good := make([]byte, valueSize)
	stampValue(good, 0, preloadWriter, 1)
	r.check(op{clsGet, 0}, 0, good, nil)
	if r.failed != 0 {
		t.Fatalf("a correct GET failed: %s", r.firstErr)
	}
	stale := make([]byte, valueSize)
	stampValue(stale, 0, r.id, 5)
	foreign := make([]byte, valueSize)
	stampValue(foreign, 1, preloadWriter, 1)
	torn := append([]byte(nil), good...)
	torn[valueSize-1] ^= 1
	for i, got := range [][]byte{stale, foreign, torn, nil} {
		var err error
		if got == nil {
			err = aceso.ErrNotFound
		}
		r.check(op{clsGet, 0}, 0, got, err)
		if r.wrong != uint64(i+1) {
			t.Fatalf("case %d not flagged", i)
		}
	}
}

// TestBenchmarkJSONMatchesOutput checks that the metrics the benchmark
// prints are exactly those BENCHMARK.json declares, with the same units.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	// No in-window failure: recovery.* comes from the tcpnet child's
	// post-window fail-stop.
	e, res := measureOnce(t, smallSim(2, false), newRecorder())
	if res.recovery != nil {
		t.Fatalf("simnet window without a failure reported a recovery: %+v", res.recovery)
	}
	check := func(what string, declared []struct{ Name, Unit string }, got map[string]metric) {
		want := map[string]string{}
		for _, d := range declared {
			want[d.Name] = d.Unit
		}
		for name, m := range got {
			if u, ok := want[name]; !ok || u != m.Unit {
				t.Errorf("%s: printed %s [%s], declared [%s]", what, name, m.Unit, u)
			}
		}
		var missing []string
		for name := range want {
			if _, ok := got[name]; !ok {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s: declared but not printed: %v", what, missing)
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics(res, 1))
	tcp := childResult{Metrics: endToEndMetrics(res, 1), Recovery: &aceso.RecoveryReport{}}
	check("per_layer", b.PerLayer, layerMetrics(e, res, childResult{Ops: res.ops, WallS: 1}, tcp))
}
