package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
)

// fusedTestConfig keeps the whole zero-alloc measurement inside one
// open DATA block (no mid-measure provisioning) and disables the two
// features that allocate by design: span sampling, and the prefetch
// worker (whose queues would grow unbounded while the engine is
// paused under a direct-driven client).
func fusedTestConfig(cfg *Config) {
	cfg.Layout.BlockSize = 256 << 10
	cfg.TraceSample = -1
	cfg.BlockPrefetch = false
	// Defer automatic bitmap flushes; the test flushes explicitly
	// between phases so the measured window performs no RPCs.
	cfg.BitmapFlushOps = 1 << 20
}

// TestFusedUpdateSingleDoorbellZeroAlloc pins the two headline
// properties of the fused write path on the steady-state UPDATE:
//
//   - single RTT: each UPDATE issues exactly one doorbell carrying
//     {KV pair write, deltaCopies delta writes, commit CAS} — 0 reads,
//     3 writes, 1 CAS with the default 2-parity layout — and
//   - zero heap allocations per op.
func TestFusedUpdateSingleDoorbellZeroAlloc(t *testing.T) {
	tc := newTestCluster(t, fusedTestConfig)
	const n = 32
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	})

	// Drive a fresh client from the test goroutine; the engine is
	// paused, so memory is static and RPCs dispatch synchronously.
	dctx := &directCtx{pl: tc.pl}
	cli := tc.cl.NewClient()
	cli.Attach(dctx)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	v := val(0, 1)
	// Two passes: the first provisions the open block and populates
	// the index cache, the second warms every pooled scratch buffer.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			if err := cli.Update(keys[i], v); err != nil {
				t.Fatalf("warm update %d: %v", i, err)
			}
		}
	}

	// Verb phase: a steady-state fused UPDATE costs 0 reads, 1+deltaCopies
	// writes and 1 CAS, all rung with a single doorbell.
	wantWrites := uint64(1 + tc.cl.Cfg.deltaCopies())
	r0, w0, c0 := cli.Stats.ReadsIssued, cli.Stats.WritesIssued, cli.Stats.CASIssued
	f0, fb0 := cli.Stats.WriteFused, cli.Stats.WriteFallback
	db0 := dctx.doorbells
	for i := 0; i < n; i++ {
		if err := cli.Update(keys[i], v); err != nil {
			t.Fatalf("verb update %d: %v", i, err)
		}
	}
	if reads := cli.Stats.ReadsIssued - r0; reads != 0 {
		t.Fatalf("fused UPDATE issued %d reads over %d ops, want 0", reads, n)
	}
	if writes := cli.Stats.WritesIssued - w0; writes != wantWrites*n {
		t.Fatalf("fused UPDATE writes = %d over %d ops, want %d/op", writes, n, wantWrites)
	}
	if cas := cli.Stats.CASIssued - c0; cas != n {
		t.Fatalf("fused UPDATE CASes = %d over %d ops, want 1/op", cas, n)
	}
	if db := dctx.doorbells - db0; db != n {
		t.Fatalf("fused UPDATE doorbells = %d over %d ops, want exactly 1/op", db, n)
	}
	if fused := cli.Stats.WriteFused - f0; fused != n {
		t.Fatalf("WriteFused advanced %d over %d ops, want every op fused", fused, n)
	}
	if fb := cli.Stats.WriteFallback - fb0; fb != 0 {
		t.Fatalf("steady-state UPDATE fell back %d times", fb)
	}

	// Reset the pending-bitmap buffers so the measured window appends
	// into retained capacity and performs no flush RPC.
	cli.FlushBitmaps()

	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := cli.Update(keys[i%n], v); err != nil {
			t.Fatal("update failed during measurement")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("fused UPDATE allocates %.2f objects/op, want 0", allocs)
	}
	if cli.Stats.DeltaSkips != 0 {
		t.Fatalf("healthy cluster recorded %d delta skips", cli.Stats.DeltaSkips)
	}
}

// TestFusedInsertDoorbells pins the fused INSERT shape: a fresh key
// costs {bucket-pair read} then {KV, deltas, slot CAS 0→new} in one
// ordered batch, plus the unsignaled Meta length-hint post — 2 reads,
// 1+deltaCopies+1 writes, 1 CAS and exactly 3 doorbells per op.
func TestFusedInsertDoorbells(t *testing.T) {
	tc := newTestCluster(t, fusedTestConfig)
	dctx := &directCtx{pl: tc.pl}
	cli := tc.cl.NewClient()
	cli.Attach(dctx)
	// Open the DATA/DELTA blocks so provisioning stays out of the count.
	if err := cli.Insert(key(1000), val(1000, 0)); err != nil {
		t.Fatalf("warm insert: %v", err)
	}

	const n = 32
	wantWrites := uint64(1 + tc.cl.Cfg.deltaCopies() + 1)
	r0, w0, c0 := cli.Stats.ReadsIssued, cli.Stats.WritesIssued, cli.Stats.CASIssued
	f0, fb0 := cli.Stats.WriteFused, cli.Stats.WriteFallback
	db0 := dctx.doorbells
	for i := 0; i < n; i++ {
		if err := cli.Insert(key(i), val(i, 0)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if reads := cli.Stats.ReadsIssued - r0; reads != 2*n {
		t.Fatalf("fused INSERT reads = %d over %d ops, want 2/op", reads, n)
	}
	if writes := cli.Stats.WritesIssued - w0; writes != wantWrites*n {
		t.Fatalf("fused INSERT writes = %d over %d ops, want %d/op", writes, n, wantWrites)
	}
	if cas := cli.Stats.CASIssued - c0; cas != n {
		t.Fatalf("fused INSERT CASes = %d over %d ops, want 1/op", cas, n)
	}
	if db := dctx.doorbells - db0; db != 3*n {
		t.Fatalf("fused INSERT doorbells = %d over %d ops, want exactly 3/op", db, n)
	}
	if fused := cli.Stats.WriteFused - f0; fused != n {
		t.Fatalf("WriteFused advanced %d over %d inserts, want 1/op", fused, n)
	}
	if fb := cli.Stats.WriteFallback - fb0; fb != 0 {
		t.Fatalf("fresh-key INSERT fell back %d times", fb)
	}
	for i := 0; i < n; i++ {
		got, err := cli.Search(key(i))
		if err != nil || !bytes.Equal(got, val(i, 0)) {
			t.Fatalf("search %d after fused insert: err=%v", i, err)
		}
	}
}

// racingCtx runs race once, just before the first placement batch
// whose tail is an insert's commit CAS (expected word 0) reaches
// memory — so a competing inserter deterministically claims the slot
// in the window between the bucket read and the fused batch.
type racingCtx struct {
	*directCtx
	race func()
}

func (r *racingCtx) Batch(ops []rdma.Op) error {
	if n := len(ops); r.race != nil && n > 0 && ops[n-1].Kind == rdma.OpCAS && ops[n-1].Old == 0 {
		race := r.race
		r.race = nil
		race()
	}
	return r.directCtx.Batch(ops)
}

// TestFusedInsertLostCASRetriesAsUpdate loses a fused insert CAS to a
// racing inserter of the same key. The loser must invalidate its pair,
// re-read the bucket pair, find the winner's slot and commit there as
// an UPDATE: one slot for the key, one invalidated pair, and the
// stripe invariant intact.
func TestFusedInsertLostCASRetriesAsUpdate(t *testing.T) {
	tc := newTestCluster(t, fusedTestConfig)
	k := []byte("fused-insert-race")
	winner := tc.cl.NewClient()
	winner.Attach(&directCtx{pl: tc.pl})
	loser := tc.cl.NewClient()
	rctx := &racingCtx{directCtx: &directCtx{pl: tc.pl}}
	loser.Attach(rctx)
	var raceErr error
	rctx.race = func() { raceErr = winner.Insert(k, val(1, 0)) }

	if err := loser.Insert(k, val(2, 0)); err != nil {
		t.Fatalf("losing insert: %v", err)
	}
	if raceErr != nil {
		t.Fatalf("racing insert: %v", raceErr)
	}
	if rctx.race != nil {
		t.Fatal("no fused insert batch was issued")
	}
	if st := loser.Stats; st.CASRetries != 1 || st.Invalidations != 1 {
		t.Fatalf("loser CASRetries=%d Invalidations=%d, want 1 and 1", st.CASRetries, st.Invalidations)
	}
	if st := loser.Stats; st.WriteFused != 2 || st.WriteFallback != 0 {
		t.Fatalf("loser WriteFused=%d WriteFallback=%d, want 2 fused attempts and 0 fallbacks",
			st.WriteFused, st.WriteFallback)
	}
	slots := tc.slotsOf(t, k)
	if len(slots) != 1 {
		t.Fatalf("key committed in %d slots, want 1", len(slots))
	}
	if got := slots[0].Atomic.Ver; got != 2 {
		t.Fatalf("slot version %d, want 2 (insert by the winner, update by the loser)", got)
	}
	if valid, invalid := tc.pairsOf(k); valid != 2 || invalid != 1 {
		t.Fatalf("pairs of key: %d valid, %d invalidated; want 2 and 1", valid, invalid)
	}
	reader := tc.cl.NewClient()
	reader.Attach(&directCtx{pl: tc.pl})
	got, err := reader.Search(k)
	if err != nil || !bytes.Equal(got, val(2, 0)) {
		t.Fatalf("search after lost insert CAS: err=%v, want the loser's retried value", err)
	}
	stripeParityInvariant(t, tc)
}

// TestFusedRolloverPastVerMax updates one key past layout.VerMax
// twice with fused commit on. The rollover writes take the Meta lock,
// ride the fused batch and unlock: every read sees the last value, the
// slot's epoch advances by 2 per rollover and ends even, and no
// attempt falls back to the two-phase shape.
func TestFusedRolloverPastVerMax(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) { cfg.FusedCommit = true })
	k := []byte("fused-rollover")
	const updates = 2*(layout.VerMax+1) + 8
	var st ClientStats
	tc.runClients(t, 120*time.Second, func(c *Client) {
		if err := c.Insert(k, val(0, 0)); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		for u := 1; u <= updates; u++ {
			if err := c.Update(k, val(0, u)); err != nil {
				t.Errorf("update %d: %v", u, err)
				return
			}
			got, err := c.Search(k)
			if err != nil || !bytes.Equal(got, val(0, u)) {
				t.Errorf("search after update %d: err=%v, stale or wrong value", u, err)
				return
			}
		}
		st = c.Stats
	})
	if st.WriteFallback != 0 {
		t.Fatalf("rollover run fell back %d times, want 0", st.WriteFallback)
	}
	if st.WriteFused != updates+1 {
		t.Fatalf("WriteFused = %d, want %d (every write fused)", st.WriteFused, updates+1)
	}
	// The insert installs ver 1; update u sees ver u mod 256 and rolls
	// the epoch when that is VerMax.
	rollovers := 0
	for u := 1; u <= updates; u++ {
		if u%(layout.VerMax+1) == layout.VerMax {
			rollovers++
		}
	}
	slots := tc.slotsOf(t, k)
	if len(slots) != 1 {
		t.Fatalf("key committed in %d slots, want 1", len(slots))
	}
	meta, atom := slots[0].Meta, slots[0].Atomic
	if meta.Locked() {
		t.Fatalf("slot Meta left locked: epoch %d", meta.Epoch)
	}
	if want := uint64(2 * rollovers); meta.Epoch != want {
		t.Fatalf("slot epoch %d after %d rollovers, want %d", meta.Epoch, rollovers, want)
	}
	if want := uint8((updates + 1) % (layout.VerMax + 1)); atom.Ver != want {
		t.Fatalf("slot version %d, want %d", atom.Ver, want)
	}
	tc.runClients(t, 10*time.Second, func(c *Client) {
		got, err := c.Search(k)
		if err != nil || !bytes.Equal(got, val(0, updates)) {
			t.Errorf("cold search after rollovers: err=%v, stale or wrong value", err)
		}
	})
}

// memOf returns the simulated memory currently serving logical MN mn.
func (tc *testCluster) memOf(mn int) []byte {
	node, _ := tc.cl.view.nodeOf(mn)
	return tc.pl.DirectMemory(node)
}

// slotsOf scans k's bucket pair straight from its home MN's memory and
// returns every slot whose committed pair holds k.
func (tc *testCluster) slotsOf(t *testing.T, k []byte) []racehash.Match {
	t.Helper()
	l := tc.cl.L
	h := racehash.Hash(k)
	mem := tc.memOf(racehash.HomeMN(h, l.Cfg.NumMNs))
	i1, i2 := racehash.BucketPair(h, l.NumBuckets())
	b1 := mem[l.BucketOff(i1):][:layout.BucketSize]
	b2 := mem[l.BucketOff(i2):][:layout.BucketSize]
	var out []racehash.Match
	for _, m := range racehash.ScanBuckets(racehash.Fingerprint(h), b1, b2) {
		mn, off := layout.UnpackAddr(m.Atomic.Addr)
		pair := tc.memOf(int(mn))[off:]
		n := layout.KVClassSize(int(binary.LittleEndian.Uint16(pair[2:])), int(binary.LittleEndian.Uint32(pair[4:])))
		kv, err := layout.DecodeKV(pair[:n])
		if err != nil || kv == nil {
			t.Fatalf("committed slot points at an unreadable pair: %v", err)
		}
		if bytes.Equal(kv.Key, k) {
			out = append(out, m)
		}
	}
	return out
}

// pairsOf scans every DATA block of every MN for pairs holding k and
// counts those with a live slot version and those invalidated by a
// lost commit (Algorithm 1 line 18).
func (tc *testCluster) pairsOf(k []byte) (valid, invalid int) {
	l := tc.cl.L
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		mem := tc.memOf(mn)
		for b := 0; b < l.Cfg.BlocksPerMN(); b++ {
			rec := layout.DecodeRecord(mem[l.RecordOff(b):][:layout.RecordSize])
			if rec.Role != layout.RoleData || rec.SizeClass == 0 {
				continue
			}
			size := uint64(rec.SizeClass) * 64
			blk := mem[l.BlockOff(b):][:l.Cfg.BlockSize]
			for off := uint64(0); off+size <= uint64(len(blk)); off += size {
				kv, err := layout.DecodeKV(blk[off : off+size])
				if err != nil || kv == nil || !bytes.Equal(kv.Key, k) {
					continue
				}
				if kv.SlotVersion == layout.InvalidVersion {
					invalid++
				} else {
					valid++
				}
			}
		}
	}
	return valid, invalid
}

// BenchmarkUpdateFused is the CI allocation/latency gate for the fused
// UPDATE hot path (run with -benchmem; allocs/op must stay 0).
func BenchmarkUpdateFused(b *testing.B) {
	cfg := testConfig()
	cfg.Layout.BlockSize = 1 << 20
	cfg.TraceSample = -1
	cfg.BlockPrefetch = false
	pl := simnet.New(simnet.DefaultConfig())
	cl, err := NewCluster(cfg, pl)
	if err != nil {
		b.Fatal(err)
	}
	cl.StartServers()
	cl.StartMaster()
	defer pl.Shutdown()
	const n = 64
	done := false
	cl.SpawnClient(pl.AddComputeNode(), "load", func(c *Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				b.Errorf("insert: %v", err)
				break
			}
		}
		done = true
	})
	limit := pl.Engine().Now() + 30*time.Second
	for !done && pl.Engine().Now() < limit {
		pl.Run(pl.Engine().Now() + time.Millisecond)
	}
	if !done {
		b.Fatal("preload did not finish")
	}

	cli := cl.NewClient()
	cli.Attach(&directCtx{pl: pl})
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	v := val(0, 1)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			if err := cli.Update(keys[i], v); err != nil {
				b.Fatalf("warm update: %v", err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Update(keys[i%n], v); err != nil {
			b.Fatalf("update: %v", err)
		}
	}
}

// TestFusedUpdateSkipsDeltasOnParityMNFailure kills the MN hosting one
// of the open block's DELTA copies mid-stream (no spare, so the
// membership hole stays open) and asserts the fused path records the
// unwritable copies as delta skips instead of failing or aborting the
// committed writes — a skipped delta must never become a lost update.
func TestFusedUpdateSkipsDeltasOnParityMNFailure(t *testing.T) {
	tc := newTestCluster(t, nil)
	var st ClientStats
	tc.runClients(t, 120*time.Second, func(c *Client) {
		k := key(1)
		if err := c.Insert(k, val(1, 0)); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		// The insert opened a DATA block; fail the MN hosting its
		// first DELTA copy. Updates to k keep committing on the (live)
		// data and index MNs while refreshDeltas cannot re-place the
		// dead copy.
		var ob *openBlock
		for _, b := range c.open {
			if len(b.deltas) > 0 {
				ob = b
				break
			}
		}
		if ob == nil || len(ob.deltas) < 2 {
			t.Errorf("open block has %v delta targets, want 2", ob)
			return
		}
		victim := ob.deltas[0].mn
		if victim == racehash.HomeMN(racehash.Hash(k), c.cl.Cfg.Layout.NumMNs) {
			victim = ob.deltas[1].mn // keep the key's index partition alive
		}
		c.cl.FailMN(victim)
		for r := 1; r <= 20; r++ {
			if err := c.Update(k, val(1, r)); err != nil {
				t.Errorf("update %d after parity MN failure: %v", r, err)
				return
			}
		}
		got, err := c.Search(k)
		if err != nil || !bytes.Equal(got, val(1, 20)) {
			t.Errorf("search after skips: err=%v", err)
		}
		st = c.Stats
	})
	if st.DeltaSkips == 0 {
		t.Fatal("no delta skips recorded across a dead parity MN")
	}
	if st.WriteFused == 0 {
		t.Fatal("updates did not take the fused path")
	}
}

// TestFusedConcurrentWritersParityInvariant is the lost-CAS crash
// stress: contending fused writers race the commit CAS — first as
// inserters of the same fresh keys (expected word 0), then as updaters
// of one hot key — so losers leave orphaned pairs whose deltas were
// already applied. Each raced key must end up in exactly one slot,
// every losing pair must be invalidated rather than leaked as
// committed data, and the XOR-code invariant DATA ⊕ DELTA ⊕ PARITY = 0
// must survive.
func TestFusedConcurrentWritersParityInvariant(t *testing.T) {
	tc := newTestCluster(t, nil)
	const writers = 4

	// Insert race: every writer inserts the same fresh keys in the same
	// order, so they collide on each key's free slot.
	const raceKeys = 24
	raceKey := func(i int) []byte { return []byte(fmt.Sprintf("fused-race-%03d", i)) }
	stats := make([]ClientStats, writers)
	fns := make([]func(*Client), writers)
	for w := 0; w < writers; w++ {
		w := w
		fns[w] = func(c *Client) {
			for i := 0; i < raceKeys; i++ {
				if err := c.Insert(raceKey(i), val(i, w)); err != nil {
					t.Errorf("writer %d insert %d: %v", w, i, err)
					return
				}
			}
			stats[w] = c.Stats
		}
	}
	tc.runClients(t, 120*time.Second, fns...)
	var lost, invalidations, fallbacks uint64
	for w := range stats {
		lost += stats[w].CASRetries
		invalidations += stats[w].Invalidations
		fallbacks += stats[w].WriteFallback
	}
	if lost == 0 {
		t.Fatal("4 writers inserting the same keys recorded no lost CAS")
	}
	if fallbacks != 0 {
		t.Fatalf("racing inserts fell back %d times, want every attempt fused", fallbacks)
	}
	invalidPairs := 0
	for i := 0; i < raceKeys; i++ {
		k := raceKey(i)
		slots := tc.slotsOf(t, k)
		if len(slots) != 1 {
			t.Fatalf("key %q committed in %d slots, want exactly 1", k, len(slots))
		}
		// One commit per writer, all on that one slot.
		if got := slots[0].Atomic.Ver; got != writers {
			t.Fatalf("key %q slot version %d, want %d commits", k, got, writers)
		}
		valid, invalid := tc.pairsOf(k)
		if valid != writers {
			t.Fatalf("key %q has %d live-version pairs, want %d (one per commit)", k, valid, writers)
		}
		invalidPairs += invalid
	}
	if uint64(invalidPairs) != lost || invalidations != lost {
		t.Fatalf("%d lost commits, %d invalidations issued, %d invalidated pairs found; want all equal",
			lost, invalidations, invalidPairs)
	}

	// Update race on one hot key.
	k := []byte("fused-contended")
	stats = make([]ClientStats, writers)
	for w := 0; w < writers; w++ {
		w := w
		fns[w] = func(c *Client) {
			for r := 0; r < 100; r++ {
				if err := c.Update(k, val(w, r)); err != nil {
					t.Errorf("writer %d update %d: %v", w, r, err)
					return
				}
			}
			stats[w] = c.Stats
		}
	}
	tc.runClients(t, 120*time.Second, fns...)
	var fused, retries uint64
	for w := range stats {
		fused += stats[w].WriteFused
		retries += stats[w].CASRetries
	}
	if fused == 0 {
		t.Fatal("no write took the fused path")
	}
	if retries == 0 {
		t.Fatal("4 contending writers on one key recorded no lost CAS")
	}
	tc.runClients(t, 10*time.Second, func(c *Client) {
		if _, err := c.Search(k); err != nil {
			t.Errorf("search after contention: %v", err)
		}
	})
	tc.run(100 * time.Millisecond) // drain seals and encoders
	stripeParityInvariant(t, tc)
}

// TestFusedWritesUnderMNFailStop drives concurrent fused writers and a
// reader across a fail-stop + tiered recovery (run under -race in CI:
// the prefetch workers, servers and clients all share the platform).
// Writers must complete every generation, the reader must only ever
// observe a value some writer actually wrote for that key, and the
// final state must be each key's last generation.
func TestFusedWritesUnderMNFailStop(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.cl.master.AddSpare()
	const n = 60
	const gens = 5
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	})
	tc.run(2 * tc.cl.Cfg.CkptInterval)

	// valid[i] holds every value ever written for key i.
	valid := make([]map[string]bool, n)
	for i := range valid {
		valid[i] = map[string]bool{string(val(i, 0)): true}
		for g := 1; g <= gens; g++ {
			valid[i][string(val(i, g))] = true
		}
	}
	writer := func(lo, hi int) func(*Client) {
		return func(c *Client) {
			for g := 1; g <= gens; g++ {
				for i := lo; i < hi; i++ {
					if err := c.Update(key(i), val(i, g)); err != nil {
						t.Errorf("update key %d gen %d: %v", i, g, err)
						return
					}
				}
			}
		}
	}
	reader := func(c *Client) {
		for pass := 0; pass < 3*gens; pass++ {
			for i := 0; i < n; i++ {
				got, err := c.Search(key(i))
				if err != nil {
					t.Errorf("read key %d: %v", i, err)
					return
				}
				if !valid[i][string(got)] {
					t.Errorf("read key %d: value was never written", i)
					return
				}
			}
		}
	}
	failer := func(c *Client) {
		c.ctx.Sleep(2 * time.Millisecond) // let the writers get going
		c.cl.FailMN(1)
	}
	tc.runClients(t, 600*time.Second, writer(0, n/2), writer(n/2, n), reader, failer)

	for i := 0; i < 30000; i++ {
		tc.run(time.Millisecond)
		if _, _, ready := tc.cl.MNState(1); ready {
			break
		}
	}
	if _, _, ready := tc.cl.MNState(1); !ready {
		t.Fatal("MN 1 never finished recovery")
	}
	expect := make(map[int][]byte, n)
	for i := 0; i < n; i++ {
		expect[i] = val(i, gens)
	}
	tc.verifyAll(t, expect)
}

// TestFusedCommitKnob verifies the -fused-commit escape hatch: with
// the knob off every write takes the two-phase path (and the cluster
// still works); with it on, steady-state updates fuse.
func TestFusedCommitKnob(t *testing.T) {
	for _, fused := range []bool{false, true} {
		name := "off"
		if fused {
			name = "on"
		}
		t.Run(name, func(t *testing.T) {
			tc := newTestCluster(t, func(cfg *Config) { cfg.FusedCommit = fused })
			const n = 40
			var st ClientStats
			tc.runClients(t, 60*time.Second, func(c *Client) {
				for i := 0; i < n; i++ {
					if err := c.Insert(key(i), val(i, 0)); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				}
				for i := 0; i < n; i++ {
					if err := c.Update(key(i), val(i, 1)); err != nil {
						t.Errorf("update: %v", err)
						return
					}
					got, err := c.Search(key(i))
					if err != nil || !bytes.Equal(got, val(i, 1)) {
						t.Errorf("search %d: err=%v", i, err)
						return
					}
				}
				st = c.Stats
			})
			if fused {
				if st.WriteFused == 0 {
					t.Fatal("FusedCommit=true recorded no fused writes")
				}
			} else {
				if st.WriteFused != 0 {
					t.Fatalf("FusedCommit=false recorded %d fused writes", st.WriteFused)
				}
				if st.WriteFallback == 0 {
					t.Fatal("no fallback attempts counted with fusion off")
				}
			}
		})
	}
}
