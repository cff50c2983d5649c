package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/racehash"
	"repro/internal/rdma"
)

// Client errors.
var (
	// ErrNotFound reports a SEARCH or DELETE of an absent key.
	ErrNotFound = errors.New("aceso: key not found")
	// ErrNoSpace reports that no MN could allocate a DATA block.
	ErrNoSpace = errors.New("aceso: memory pool exhausted")
	// ErrRetriesExhausted reports an operation that kept losing CAS
	// races or finding locked slots beyond the retry budget.
	ErrRetriesExhausted = errors.New("aceso: retries exhausted")
)

const maxOpRetries = 1024

// maxOpenClasses bounds the open-DATA-block map: a workload cycling
// through many value size classes would otherwise pin one partially
// filled block (plus, for reused blocks, a BlockSize oldData image)
// per class forever. Past the bound the least-recently-used class is
// sealed early — its unwritten slots leak until reclamation, which is
// the bounded-memory trade the paper's per-class open blocks imply.
const maxOpenClasses = 16

// Client executes KV requests with one-sided verbs (§3.1). Each client
// is single-threaded (bind one per process/coroutine, as the paper's
// clients do); it owns open DATA blocks per size class and a bounded
// CN-side index cache (§3.5.1, DESIGN.md §12) of positive slot-address
// entries, negative entries and an optional hot-bucket mirror.
type Client struct {
	cl  *Cluster
	id  uint16
	ctx rdma.Ctx
	// ot is the ctx's per-op tracing surface (nil when the ctx is not
	// a traced obs wrapper): ops bracket themselves with OpBegin/OpEnd
	// so sampled ops record verb child spans, and annotate lock-stripe
	// waits and degraded reads with OpMark.
	ot obs.OpTracer

	cache  *clientCache  // nil when CacheEntries < 0
	mirror *bucketMirror // nil unless OffloadBuckets > 0
	// bvLive: the fabric maintains bucket version words (servers can
	// bump them pre-ack), so version-validated state (negative
	// entries, mirror copies) may be trusted.
	bvLive   bool
	met      *obs.CacheMetrics
	wmet     *obs.WriteMetrics
	scratch  readScratch
	wsc      writeScratch
	open     map[uint8]*openBlock
	openLRU  []uint8 // size classes, least recently used first
	pending  map[pendKey][]uint32
	pendingN int
	allocSeq int
	// pendingSeal holds a just-filled block whose seal must wait until
	// after the commit CAS of its final KV (§3.2.3 ordering).
	pendingSeal []*openBlock
	// ordered: the attached ctx honours the OrderedBatcher tail-CAS
	// contract, so commits may fuse into the placement doorbell
	// (DESIGN.md §13).
	ordered bool
	// pf is the background block-provisioning worker's shared state
	// (nil unless Config.BlockPrefetch).
	pf        *blockPrefetcher
	flushKeys []pendKey // FlushBitmaps sort scratch
	flushEnc  []byte    // sendFreeBits encode scratch (inline path)

	// Stats observable by harnesses.
	Stats ClientStats
}

// readScratch holds the cached-GET hot path's reusable buffers, so a
// steady-state hit performs no heap allocation (TestCachedGetZeroAlloc).
type readScratch struct {
	kv   []byte // KV read buffer, grown to the largest class seen
	word [4][8]byte
	b1   []byte // bucket image buffers (CacheSlotAddr=false ablation)
	b2   []byte
	ops  [6]rdma.Op
	dkv  layout.KV
}

// growKV returns an n-byte KV buffer, reusing prior capacity.
func (sc *readScratch) growKV(n int) []byte {
	if cap(sc.kv) < n {
		sc.kv = make([]byte, n)
	}
	return sc.kv[:n]
}

// writeScratch holds the write path's reusable buffers so a
// steady-state fused UPDATE performs no heap allocation
// (TestFusedWriteZeroAlloc): the KV encode buffer and XOR delta, the
// placement batch and invalidation op slices, and the 8-byte patch
// words the invalidation ops point at.
type writeScratch struct {
	buf      []byte    // KV encode buffer, grown to the largest class seen
	delta    []byte    // XOR delta against the reclaimed slot's old bytes
	ops      []rdma.Op // placement batch: KV write + delta writes (+ fused CAS)
	inv      []rdma.Op // invalidation patch for a lost commit
	invData  [8]byte
	invDelta [8]byte
	metaW    [8]byte // length-hint repair word (must outlive the Post)
	metaOp   [1]rdma.Op
	fuse     fuseSpec
}

// fuseSpec carries the commit-CAS operands into placeKV when the
// attempt fuses the commit into the placement batch.
type fuseSpec struct {
	slotAddr rdma.GlobalAddr
	atomOld  uint64
	fp       uint8
	verNew   uint8
}

func (sc *writeScratch) growBuf(n int) []byte {
	if cap(sc.buf) < n {
		sc.buf = make([]byte, n)
	}
	return sc.buf[:n]
}

func (sc *writeScratch) growDelta(n int) []byte {
	if cap(sc.delta) < n {
		sc.delta = make([]byte, n)
	}
	return sc.delta[:n]
}

// ClientStats counts notable client-side events.
type ClientStats struct {
	Ops           uint64
	Searches      uint64
	Inserts       uint64
	Updates       uint64
	Deletes       uint64
	Invalidations uint64
	CASRetries    uint64
	LockWaits     uint64
	DegradedReads uint64
	CacheHits     uint64
	CacheMisses   uint64
	CacheNegHits  uint64 // negative entries validated: miss answered in one doorbell
	MirrorHits    uint64 // GETs served from the hot-bucket mirror
	MirrorNegHits uint64 // absences proven by a mirror scan + version check
	BlocksAlloc   uint64
	BlocksReused  uint64
	CASIssued     uint64
	ReadsIssued   uint64
	WritesIssued  uint64
	BytesRead     uint64
	BytesWritten  uint64

	// Fused write path (DESIGN.md §13).
	WriteFused          uint64 // commits fused into the placement batch (1 RTT)
	WriteFallback       uint64 // attempts that used the two-phase commit
	DeltaSkips          uint64 // delta copies not written (dead target or lost write)
	BlockPrefetchHits   uint64 // block refills served by the prefetcher
	BlockPrefetchMisses uint64 // refills that fell back to a synchronous alloc
}

type pendKey struct {
	mn    int
	block int
}

type openBlock struct {
	class    uint8
	mn       int
	idx      int
	stripe   uint32
	xorID    uint8
	copyIdx  uint32
	reused   bool
	oldData  []byte
	slotSize int
	slots    []int // writable slot indices remaining
	deltas   []deltaTarget
	// viewEpoch is the membership epoch the delta targets were
	// resolved under; recovery can relocate DELTA blocks, so the
	// targets are refreshed when the epoch moves.
	viewEpoch uint64
}

type deltaTarget struct {
	mn       int
	blockOff uint64
}

func newClient(cl *Cluster, id uint16) *Client {
	c := &Client{
		cl:      cl,
		id:      id,
		bvLive:  cl.bvLive,
		met:     &cl.cacheMet,
		wmet:    &cl.writeMet,
		open:    make(map[uint8]*openBlock),
		pending: make(map[pendKey][]uint32),
	}
	c.cache = newClientCache(cl.Cfg.cacheEntries())
	if c.cache != nil {
		c.cache.met = c.met
		c.met.Entries.Add(0) // touch so the family exports even before traffic
		c.met.Bytes.Add(int64(c.cache.Bytes()))
	}
	c.mirror = newBucketMirror(cl.Cfg.offloadBuckets(), c.met)
	return c
}

// CacheStats reports the client's cache occupancy and footprint
// (entries, resident bytes including the mirror, mirrored buckets,
// CLOCK evictions). Harnesses use it to assert the memory bound.
func (c *Client) CacheStats() (entries int, bytes uint64, offloaded int, evictions uint64) {
	return c.cache.Len(), c.cache.Bytes() + c.mirror.Bytes(), c.mirror.Len(), c.cache.Evictions()
}

// Attach binds the client to its process context. It must be called
// from the client's own process before any operation. When the fabric
// honours the ordered-batch contract, commit CASes fuse into the
// placement doorbell; when Config.BlockPrefetch is on, a background
// worker process is spawned alongside the client to pre-provision DATA
// blocks and absorb seal/bitmap-flush RPCs.
func (c *Client) Attach(ctx rdma.Ctx) {
	c.ctx = ctx
	c.ot, _ = ctx.(obs.OpTracer)
	c.ordered = rdma.IsOrderedBatch(ctx)
	if c.cl.Cfg.BlockPrefetch && c.pf == nil {
		c.pf = newBlockPrefetcher()
		c.cl.pl.Spawn(ctx.Node(), fmt.Sprintf("prefetch%d", c.id), c.prefetchLoop)
	}
}

// noteFallback counts a two-phase (unfused) commit attempt and its
// reason.
func (c *Client) noteFallback(reason *atomic.Uint64) {
	c.Stats.WriteFallback++
	reason.Add(1)
}

// ID returns the client's cluster-unique id.
func (c *Client) ID() uint16 { return c.id }

// --- verb helpers with accounting ---

func (c *Client) vread(buf []byte, addr rdma.GlobalAddr) error {
	c.Stats.ReadsIssued++
	c.Stats.BytesRead += uint64(len(buf))
	return c.ctx.Read(buf, addr)
}

func (c *Client) vbatch(ops []rdma.Op) error {
	for i := range ops {
		switch ops[i].Kind {
		case rdma.OpRead:
			c.Stats.ReadsIssued++
			c.Stats.BytesRead += uint64(len(ops[i].Buf))
		case rdma.OpWrite:
			c.Stats.WritesIssued++
			c.Stats.BytesWritten += uint64(len(ops[i].Buf))
		case rdma.OpCAS, rdma.OpFAA:
			c.Stats.CASIssued++
		}
	}
	return c.ctx.Batch(ops)
}

func (c *Client) vcas(addr rdma.GlobalAddr, old, new uint64) (uint64, error) {
	c.Stats.CASIssued++
	return c.ctx.CAS(addr, old, new)
}

// waitIndexReady blocks while the key's home MN index partition is
// down (§3.4.1: requests to the affected index range are blocked until
// the Index Area is recovered).
func (c *Client) waitIndexReady(mn int) {
	for {
		_, failed, idxReady, _ := c.cl.view.snapshotMN(mn)
		if !failed || idxReady {
			return
		}
		c.ctx.Sleep(200 * time.Microsecond)
	}
}

// --- SEARCH ---

// Search returns the value of key, or ErrNotFound. The returned slice
// is freshly allocated; use SearchAppend to reuse a caller buffer.
func (c *Client) Search(key []byte) ([]byte, error) {
	return c.SearchAppend(nil, key)
}

// SearchAppend appends the value of key to dst and returns the
// extended slice (or nil, ErrNotFound). With a caller-provided dst of
// sufficient capacity, a cache-hit GET performs zero heap allocations.
func (c *Client) SearchAppend(dst, key []byte) ([]byte, error) {
	if c.ot != nil {
		c.ot.OpBegin("get")
		val, err := c.search(dst, key)
		c.ot.OpEnd(err != nil && !errors.Is(err, ErrNotFound))
		return val, err
	}
	return c.search(dst, key)
}

func (c *Client) search(dst, key []byte) ([]byte, error) {
	c.Stats.Ops++
	c.Stats.Searches++
	h := racehash.Hash(key)
	mn := racehash.HomeMN(h, c.cl.Cfg.Layout.NumMNs)
	fp := racehash.Fingerprint(h)
	c.waitIndexReady(mn)

	sawMiss := false
	if ent := c.cache.lookup(h, key); ent != nil {
		switch {
		case ent.neg():
			if c.negValid(ent, h, mn) {
				c.Stats.CacheNegHits++
				c.met.NegHits.Add(1)
				c.noteHot(h, mn)
				return nil, ErrNotFound
			}
			// Stale negative conclusion: requery with the version
			// piggyback (which refreshes or replaces the entry).
			sawMiss = true
		case ent.flags&entMissed != 0:
			// Miss candidate: the key missed before, so this query
			// snapshots versions and installs a validated negative.
			c.Stats.CacheMisses++
			c.met.Misses.Add(1)
			sawMiss = true
		default:
			c.Stats.CacheHits++
			c.met.Hits.Add(1)
			val, err := c.cachedRead(dst, key, ent)
			if err == nil || errors.Is(err, ErrNotFound) {
				c.noteHot(h, mn)
				return val, err
			}
			// Stale or torn: fall back to a full index query.
		}
	} else {
		c.Stats.CacheMisses++
		c.met.Misses.Add(1)
	}
	if c.mirror != nil && c.bvLive {
		if val, err, served := c.mirrorSearch(dst, key, h, mn, fp); served {
			return val, err
		}
	}
	return c.querySearch(dst, key, h, mn, fp, sawMiss)
}

// negValid revalidates a negative entry: one doorbell of two 8-byte
// bucket-version reads. Equality with the populated versions proves
// neither candidate bucket changed since the absence was observed, so
// the key is still absent (the bump lands before any writer's ack).
// Entries from an older view epoch are never trusted — a rebuilt MN
// restarts its version counters.
func (c *Client) negValid(ent *cacheEnt, h uint64, mn int) bool {
	if !c.bvLive || ent.mn != mn || ent.epoch != c.cl.view.epochNow() {
		return false
	}
	l := c.cl.L
	i1, i2 := racehash.BucketPair(h, l.NumBuckets())
	a1, ok1 := c.cl.Addr(mn, l.BucketVerOff(i1))
	a2, ok2 := c.cl.Addr(mn, l.BucketVerOff(i2))
	if !ok1 || !ok2 {
		return false
	}
	sc := &c.scratch
	ops := sc.ops[:0]
	ops = append(ops,
		rdma.Op{Kind: rdma.OpRead, Addr: a1, Buf: sc.word[0][:]},
		rdma.Op{Kind: rdma.OpRead, Addr: a2, Buf: sc.word[1][:]})
	if c.vbatch(ops) != nil || ops[0].Err != nil || ops[1].Err != nil {
		return false
	}
	return binary.LittleEndian.Uint64(sc.word[0][:]) == ent.negV1 &&
		binary.LittleEndian.Uint64(sc.word[1][:]) == ent.negV2
}

// noteHot feeds the mirror's promotion counters from the cache-hit
// stream too, so bucket heat reflects total GET traffic rather than
// only misses: when CLOCK pressure later evicts a hot key from the
// entry cache, its bucket is usually already resident and the refill
// costs one RTT through the mirror.
func (c *Client) noteHot(h uint64, mn int) {
	if c.mirror == nil || !c.bvLive {
		return
	}
	i1, _ := racehash.BucketPair(h, c.cl.L.NumBuckets())
	c.mirror.note(mn, i1)
}

var errStaleCache = errors.New("core: stale cache entry")

// errTornRead reports a committed slot whose KV pair read back torn or
// unwritten (fence 0). With fused commits on a wall-clock fabric the
// tail CAS can land an instant before the KV write's bytes do (they
// complete in issue order per connection, but readers race the window
// between them — and a chaos-lost placement write is repaired by the
// writer after its commit). Treating the state as transient and
// retrying is always correct: the pair either appears or the slot
// moves on.
var errTornRead = errors.New("core: torn or unwritten KV under a committed slot")

// cachedRead performs the cache-accelerated read of §3.5.1: with
// CacheSlotAddr it reads the KV pair and the 8-byte slot Atomic word in
// one doorbell batch; if the slot is unchanged the KV is valid (the
// slot CAS is the commit point). Without CacheSlotAddr (the "+CKPT"
// factor-analysis configuration) the client must re-read the whole
// bucket to locate and validate the slot.
// All buffers come from the client's readScratch, so a steady-state
// hit is allocation-free.
func (c *Client) cachedRead(dst, key []byte, ent *cacheEnt) ([]byte, error) {
	if ent.meta.Len == 0 {
		return nil, errStaleCache
	}
	if c.cl.Cfg.CacheValues && c.cl.Cfg.CacheSlotAddr && ent.flags&entVal != 0 {
		return c.cachedValRead(dst, key, ent)
	}
	atom := layout.UnpackAtomic(ent.atomic)
	kvAddr, ok := c.cl.PackedAddr(atom.Addr)
	sc := &c.scratch
	kvBuf := sc.growKV(int(ent.meta.Len) * 64)

	ops := sc.ops[:0]
	ops = append(ops, rdma.Op{Kind: rdma.OpRead, Addr: kvAddr, Buf: kvBuf})
	if c.cl.Cfg.CacheSlotAddr {
		// The slot's address is cached: one 8-byte validation read.
		slotAddr, idxOK := c.cl.Addr(ent.mn, ent.slotOff)
		if !idxOK {
			return nil, errStaleCache
		}
		ops = append(ops, rdma.Op{Kind: rdma.OpRead, Addr: slotAddr, Buf: sc.word[0][:]})
	} else {
		// Value-only cache (the "+CKPT" configuration): locating the
		// slot to validate requires re-reading both candidate buckets,
		// like the FUSEE baseline.
		h := racehash.Hash(key)
		i1, i2 := racehash.BucketPair(h, c.cl.L.NumBuckets())
		if sc.b1 == nil {
			sc.b1 = make([]byte, layout.BucketSize)
			sc.b2 = make([]byte, layout.BucketSize)
		}
		bufs := [2][]byte{sc.b1, sc.b2}
		for bi, b := range [2]uint64{i1, i2} {
			a, idxOK := c.cl.Addr(ent.mn, c.cl.L.BucketOff(b))
			if !idxOK {
				return nil, errStaleCache
			}
			ops = append(ops, rdma.Op{Kind: rdma.OpRead, Addr: a, Buf: bufs[bi]})
		}
	}
	err := c.vbatch(ops)
	for i := 1; i < len(ops); i++ {
		if ops[i].Err != nil {
			return nil, errStaleCache // index node changed under us
		}
	}
	if ops[0].Err != nil {
		if !ok || errors.Is(ops[0].Err, rdma.ErrNodeFailed) {
			if dErr := c.degradedRead(kvBuf, atom.Addr); dErr != nil {
				return nil, errStaleCache
			}
			err = nil
		} else {
			return nil, err
		}
	}

	cur, curOK := c.currentAtomic(ent, ops)
	if !curOK {
		return nil, errStaleCache
	}
	if cur == ent.atomic {
		return c.finishRead(dst, key, ent, kvBuf)
	}
	// Slot changed: refresh the cache and read the new KV (§3.5.1
	// "otherwise, it reads the new KV pair based on the new index
	// slot").
	ent.atomic = cur
	newAtom := layout.UnpackAtomic(cur)
	if newAtom.Addr == 0 {
		return nil, errStaleCache
	}
	if err := c.readKVBytes(kvBuf, newAtom.Addr); err != nil {
		return nil, errStaleCache
	}
	return c.finishRead(dst, key, ent, kvBuf)
}

// cachedValRead serves a hit from the entry's cached value bytes under
// a single 8-byte read of the slot Atomic word (Config.CacheValues).
// The word is the commit point of every mutation that can change the
// pair — update, delete and reclamation move all CAS it — so finding it
// unchanged proves the cached bytes are still the committed pair. On a
// changed word the new pair is chased through the new Atomic, exactly
// like the §3.5.1 slot-address path, and the cached copy refreshed.
func (c *Client) cachedValRead(dst, key []byte, ent *cacheEnt) ([]byte, error) {
	slotAddr, ok := c.cl.Addr(ent.mn, ent.slotOff)
	if !ok {
		return nil, errStaleCache
	}
	sc := &c.scratch
	ops := sc.ops[:0]
	ops = append(ops, rdma.Op{Kind: rdma.OpRead, Addr: slotAddr, Buf: sc.word[0][:]})
	if c.vbatch(ops) != nil || ops[0].Err != nil {
		return nil, errStaleCache
	}
	cur := binary.LittleEndian.Uint64(sc.word[0][:])
	if cur != ent.atomic {
		ent.atomic = cur
		newAtom := layout.UnpackAtomic(cur)
		if newAtom.Addr == 0 {
			return nil, errStaleCache
		}
		kvBuf := sc.growKV(int(ent.meta.Len) * 64)
		if err := c.readKVBytes(kvBuf, newAtom.Addr); err != nil {
			return nil, errStaleCache
		}
		return c.finishRead(dst, key, ent, kvBuf)
	}
	if ent.tomb() {
		return nil, ErrNotFound
	}
	return append(dst, ent.val...), nil
}

// currentAtomic extracts the slot's current Atomic word from the
// validation reads.
func (c *Client) currentAtomic(ent *cacheEnt, ops []rdma.Op) (uint64, bool) {
	if c.cl.Cfg.CacheSlotAddr {
		return binary.LittleEndian.Uint64(ops[1].Buf), true
	}
	// Find the slot within whichever candidate bucket holds it.
	bucket := ent.slotOff / layout.BucketSize
	rel := ent.slotOff % layout.BucketSize
	for _, op := range ops[1:] {
		if op.Addr.Off == bucket*layout.BucketSize {
			return binary.LittleEndian.Uint64(op.Buf[rel:]), true
		}
	}
	return 0, false
}

// finishRead decodes and validates a KV read under a verified slot,
// keeping the cache entry's tombstone state current. The value is
// appended to dst (decoding goes through the scratch KV, so no
// allocation happens beyond dst growth).
func (c *Client) finishRead(dst, key []byte, ent *cacheEnt, kvBuf []byte) ([]byte, error) {
	sc := &c.scratch
	ok, err := layout.DecodeKVInto(&sc.dkv, kvBuf)
	if err != nil || !ok {
		return nil, errStaleCache
	}
	kv := &sc.dkv
	if !bytes.Equal(kv.Key, key) || kv.SlotVersion == layout.InvalidVersion {
		return nil, errStaleCache
	}
	ent.flags &^= entTomb
	if kv.Tombstone {
		ent.flags |= entTomb
		if c.cl.Cfg.CacheValues {
			c.cache.storeVal(ent, nil)
		}
		return nil, ErrNotFound
	}
	if c.cl.Cfg.CacheValues {
		c.cache.storeVal(ent, kv.Val)
	}
	return append(dst, kv.Val...), nil
}

// querySearch reads the key's two candidate buckets and chases
// fingerprint matches. When the fabric maintains bucket version words
// it piggybacks the two 8-byte words onto the bucket batch (read
// first, so "word still equals v" later proves the images current) —
// but only when the extra verbs will pay for themselves: when the
// bucket pair is hot enough to promote into the mirror, or when the
// key is a known miss candidate (sawMiss) so a clean miss installs a
// validated negative entry. A first-time miss stays at the paper's
// verb count and only marks the candidate.
func (c *Client) querySearch(dst, key []byte, h uint64, mn int, fp uint8, sawMiss bool) ([]byte, error) {
	l := c.cl.L
	i1, i2 := racehash.BucketPair(h, l.NumBuckets())
	for attempt := 0; attempt < maxOpRetries; attempt++ {
		c.waitIndexReady(mn)
		promote := c.bvLive && c.mirror != nil && c.mirror.note(mn, i1)
		wantVer := c.bvLive && (promote || (c.cl.Cfg.CacheNegative && c.cache != nil && sawMiss))
		epoch := c.cl.view.epochNow()
		b1, b2, v1, v2, vOK, err := c.readBucketsVer(mn, i1, i2, wantVer)
		if err != nil {
			c.ctx.Sleep(100 * time.Microsecond)
			continue
		}
		if promote && vOK && epoch == c.cl.view.epochNow() {
			c.mirror.install(mn, i1, b1, v1, epoch)
			c.mirror.install(mn, i2, b2, v2, epoch)
		}
		matches := racehash.ScanBuckets(fp, b1, b2)
		stale := false
		for _, m := range matches {
			kv, err := c.readKV(m.Atomic, m.Meta)
			if err != nil {
				stale = true
				continue
			}
			if kv == nil {
				// Fence-0 pair under a non-empty slot: a fused commit's
				// KV write still in flight (errTornRead rationale).
				// Requery rather than conclude absence.
				stale = true
				continue
			}
			if !bytes.Equal(kv.Key, key) || kv.SlotVersion == layout.InvalidVersion {
				continue
			}
			c.updateCache(key, h, mn, m, kv.Tombstone, kv.Val)
			if kv.Tombstone {
				return nil, ErrNotFound
			}
			return append(dst, kv.Val...), nil
		}
		if !stale {
			if c.cl.Cfg.CacheNegative {
				if vOK {
					// Clean miss under known bucket versions: remember
					// the absence. Future GETs revalidate it with one
					// doorbell of two 8-byte reads.
					if ent := c.cache.upsert(h, key); ent != nil {
						ent.flags = ent.flags&^(entTomb|entMissed) | entNeg
						ent.mn = mn
						ent.negV1, ent.negV2 = v1, v2
						ent.epoch = epoch
					}
				} else if c.bvLive {
					// First clean miss: mark the key so the next query
					// piggybacks the version words and upgrades this to
					// a validated negative entry.
					if ent := c.cache.upsert(h, key); ent != nil {
						ent.flags = ent.flags&^(entTomb|entNeg) | entMissed
					}
				}
			}
			return nil, ErrNotFound
		}
		c.ctx.Sleep(20 * time.Microsecond)
	}
	return nil, ErrRetriesExhausted
}

// readBuckets fetches the key's two candidate buckets in one doorbell
// batch (write path; no version piggyback, preserving the paper's verb
// counts).
func (c *Client) readBuckets(h uint64, mn int) ([]byte, []byte, error) {
	i1, i2 := racehash.BucketPair(h, c.cl.L.NumBuckets())
	b1, b2, _, _, _, err := c.readBucketsVer(mn, i1, i2, false)
	return b1, b2, err
}

// readBucketsVer fetches both candidate buckets, optionally preceded —
// in the same in-order doorbell batch — by their version words. Since
// servers bump a bucket's word before acking any verb that mutates it,
// an image read after its word can only be newer: re-reading the word
// later and finding it unchanged proves the image was still current.
func (c *Client) readBucketsVer(mn int, i1, i2 uint64, withVer bool) (b1, b2 []byte, v1, v2 uint64, vOK bool, err error) {
	l := c.cl.L
	a1, ok1 := c.cl.Addr(mn, l.BucketOff(i1))
	a2, ok2 := c.cl.Addr(mn, l.BucketOff(i2))
	if !ok1 || !ok2 {
		return nil, nil, 0, 0, false, rdma.ErrNodeFailed
	}
	b1 = make([]byte, layout.BucketSize)
	b2 = make([]byte, layout.BucketSize)
	var w1, w2 [8]byte
	ops := make([]rdma.Op, 0, 4)
	if withVer {
		va1, _ := c.cl.Addr(mn, l.BucketVerOff(i1))
		va2, _ := c.cl.Addr(mn, l.BucketVerOff(i2))
		ops = append(ops,
			rdma.Op{Kind: rdma.OpRead, Addr: va1, Buf: w1[:]},
			rdma.Op{Kind: rdma.OpRead, Addr: va2, Buf: w2[:]})
	}
	ops = append(ops,
		rdma.Op{Kind: rdma.OpRead, Addr: a1, Buf: b1},
		rdma.Op{Kind: rdma.OpRead, Addr: a2, Buf: b2})
	if err := c.vbatch(ops); err != nil {
		return nil, nil, 0, 0, false, err
	}
	if withVer && ops[0].Err == nil && ops[1].Err == nil {
		vOK = true
		v1 = binary.LittleEndian.Uint64(w1[:])
		v2 = binary.LittleEndian.Uint64(w2[:])
	}
	return b1, b2, v1, v2, vOK, nil
}

// mirrorSearch tries to serve the GET from CN-resident copies of both
// candidate buckets: a local fingerprint scan, then one doorbell that
// reads the KV pair and — after it — both bucket version words. Words
// unchanged proves the local images (and so the slot the KV was read
// through) were still current when the KV read executed. On a version
// mismatch the images are refreshed in place and the scan retried;
// buckets whose refreshes outpace their hits are demoted (write
// pressure). served=false falls back to the remote bucket query.
func (c *Client) mirrorSearch(dst, key []byte, h uint64, mn int, fp uint8) (val []byte, err error, served bool) {
	l := c.cl.L
	i1, i2 := racehash.BucketPair(h, l.NumBuckets())
	e1 := c.mirror.get(mn, i1)
	e2 := c.mirror.get(mn, i2)
	if e1 == nil || e2 == nil {
		return nil, nil, false
	}
	va1, ok1 := c.cl.Addr(mn, l.BucketVerOff(i1))
	va2, ok2 := c.cl.Addr(mn, l.BucketVerOff(i2))
	if !ok1 || !ok2 {
		return nil, nil, false
	}
	sc := &c.scratch
	ents := [2]*mirrorEnt{e1, e2}
	vas := [2]rdma.GlobalAddr{va1, va2}
	for attempt := 0; attempt < 4; attempt++ {
		if ep := c.cl.view.epochNow(); e1.epoch != ep || e2.epoch != ep {
			// Membership moved since the copies were read: a rebuilt MN
			// restarts its version counters, so the copies are unusable.
			c.mirror.demote(mn, i1)
			c.mirror.demote(mn, i2)
			return nil, nil, false
		}
		verMatch := func(ops []rdma.Op, o int) bool {
			return ops[o].Err == nil && ops[o+1].Err == nil &&
				binary.LittleEndian.Uint64(sc.word[0][:]) == e1.ver &&
				binary.LittleEndian.Uint64(sc.word[1][:]) == e2.ver
		}
		found := false
		for ei, e := range ents {
			for s := 0; s < layout.BucketSlots; s++ {
				w := binary.LittleEndian.Uint64(e.buf[s*layout.SlotSize:])
				if w == 0 {
					continue
				}
				a := layout.UnpackAtomic(w)
				if a.FP != fp || a.Addr == 0 {
					continue
				}
				meta := layout.UnpackMeta(binary.LittleEndian.Uint64(e.buf[s*layout.SlotSize+layout.SlotMetaOff:]))
				if meta.Len == 0 {
					return nil, nil, false // stale length hint: take the slow path
				}
				kvAddr, ok := c.cl.PackedAddr(a.Addr)
				if !ok {
					return nil, nil, false // KV's MN down: slow path handles degraded reads
				}
				// A positive hit only needs the matched bucket's
				// version word: any mutation of this slot — update,
				// delete, reclamation move — goes through a CAS on it
				// and bumps this bucket's version before acking. The
				// sibling bucket is irrelevant to the located pair.
				kvBuf := sc.growKV(int(meta.Len) * 64)
				ops := sc.ops[:0]
				ops = append(ops,
					rdma.Op{Kind: rdma.OpRead, Addr: kvAddr, Buf: kvBuf},
					rdma.Op{Kind: rdma.OpRead, Addr: vas[ei], Buf: sc.word[0][:]})
				if c.vbatch(ops) != nil || ops[0].Err != nil {
					return nil, nil, false
				}
				if ops[1].Err != nil || binary.LittleEndian.Uint64(sc.word[0][:]) != e.ver {
					found = true // bucket moved: refresh and rescan
					break
				}
				okDec, decErr := layout.DecodeKVInto(&sc.dkv, kvBuf)
				if decErr != nil || !okDec {
					return nil, nil, false
				}
				kv := &sc.dkv
				if !bytes.Equal(kv.Key, key) || kv.SlotVersion == layout.InvalidVersion {
					continue // fingerprint collision: keep scanning
				}
				e.hits++
				// Refill the entry cache from the mirror hit, so the
				// key's next GET is a single slot-validation read.
				bkt := i1
				if ei == 1 {
					bkt = i2
				}
				c.cacheSet(h, key, mn, l.SlotOff(bkt, s), w, meta, kv.Tombstone, kv.Val)
				if kv.Tombstone {
					c.Stats.MirrorNegHits++
					c.met.MirrorNegHits.Add(1)
					return nil, ErrNotFound, true
				}
				c.Stats.MirrorHits++
				c.met.MirrorHits.Add(1)
				return append(dst, kv.Val...), nil, true
			}
			if found {
				break
			}
		}
		if !found {
			// No local candidate: one doorbell of two 8-byte reads
			// either proves the absence or flags the images stale.
			ops := sc.ops[:0]
			ops = append(ops,
				rdma.Op{Kind: rdma.OpRead, Addr: va1, Buf: sc.word[0][:]},
				rdma.Op{Kind: rdma.OpRead, Addr: va2, Buf: sc.word[1][:]})
			if c.vbatch(ops) != nil {
				return nil, nil, false
			}
			if verMatch(ops, 0) {
				e1.hits++
				e2.hits++
				c.Stats.MirrorNegHits++
				c.met.MirrorNegHits.Add(1)
				return nil, ErrNotFound, true
			}
		}
		// Version mismatch: refresh both images in place, demoting the
		// pair when write pressure makes refreshes outpace hits.
		epoch := c.cl.view.epochNow()
		b1, b2, v1, v2, vOK, rerr := c.readBucketsVer(mn, i1, i2, true)
		if rerr != nil || !vOK {
			return nil, nil, false
		}
		e1.refresh(b1, v1, epoch)
		e2.refresh(b2, v2, epoch)
		if e1.pressured() || e2.pressured() {
			c.mirror.demote(mn, i1)
			c.mirror.demote(mn, i2)
			return nil, nil, false
		}
	}
	return nil, nil, false
}

// updateCache records the located slot (and, under CacheValues, the
// decoded value) for future cache-accelerated reads and writes.
func (c *Client) updateCache(key []byte, h uint64, mn int, m racehash.Match, tomb bool, val []byte) {
	l := c.cl.L
	i1, i2 := racehash.BucketPair(h, l.NumBuckets())
	bucket := i1
	if m.Bucket == 1 {
		bucket = i2
	}
	c.cacheSet(h, key, mn, l.SlotOff(bucket, m.Slot), m.Atomic.Pack(), m.Meta, tomb, val)
}

// cacheSet installs (or refreshes) a positive cache entry. val is the
// committed value (nil for tombstones); it is retained only under
// Config.CacheValues.
func (c *Client) cacheSet(h uint64, key []byte, mn int, slotOff, atomic uint64, meta layout.SlotMeta, tomb bool, val []byte) {
	ent := c.cache.upsert(h, key)
	if ent == nil {
		return
	}
	ent.flags &^= entNeg | entTomb | entMissed
	if tomb {
		ent.flags |= entTomb
		val = nil
	}
	ent.mn = mn
	ent.slotOff = slotOff
	ent.atomic = atomic
	ent.meta = meta
	if c.cl.Cfg.CacheValues {
		c.cache.storeVal(ent, val)
	}
}

// readKV reads and decodes the KV pair a slot points to, using the
// slot Meta's length hint and falling back to a header-then-body read
// when the hint is stale (§3.2.2: the client repairs stale hints).
func (c *Client) readKV(atom layout.SlotAtomic, meta layout.SlotMeta) (*layout.KV, error) {
	n := int(meta.Len) * 64
	if n == 0 {
		n = 64
	}
	buf := make([]byte, n)
	if err := c.readKVBytes(buf, atom.Addr); err != nil {
		return nil, err
	}
	kv, err := layout.DecodeKV(buf)
	if err == nil && kv != nil {
		return kv, nil
	}
	if kv == nil && err == nil {
		return nil, nil
	}
	// Length hint may be stale: derive the true class from the header
	// and re-read.
	keyLen := int(binary.LittleEndian.Uint16(buf[2:]))
	valLen := int(binary.LittleEndian.Uint32(buf[4:]))
	real := layout.KVClassSize(keyLen, valLen)
	if real <= n || real > int(c.cl.Cfg.Layout.BlockSize) {
		return nil, err
	}
	buf = make([]byte, real)
	if err := c.readKVBytes(buf, atom.Addr); err != nil {
		return nil, err
	}
	return layout.DecodeKV(buf)
}

// readKVBytes reads len(buf) bytes at a packed KV address, falling
// back to a degraded erasure-decoded read when the block's MN is down
// (§3.4.1).
func (c *Client) readKVBytes(buf []byte, packed uint64) error {
	addr, ok := c.cl.PackedAddr(packed)
	if ok {
		err := c.vread(buf, addr)
		if err == nil {
			return nil
		}
		if !errors.Is(err, rdma.ErrNodeFailed) {
			return err
		}
	}
	return c.degradedRead(buf, packed)
}

// degradedRead reconstructs a byte range of a lost DATA block from the
// stripe's survivors: P-parity range ⊕ surviving data ranges ⊕ all
// pending delta ranges (see readStripeRange). Cost: ~k+2 small reads
// instead of one, which is why degraded SEARCH runs at roughly half
// throughput (Figure 14). When the stripe's survivors are themselves
// unavailable (a second failure), the client waits for tier-3 recovery.
func (c *Client) degradedRead(buf []byte, packed uint64) error {
	c.Stats.DegradedReads++
	start := c.ctx.Now()
	err := c.degradedReadInner(buf, packed)
	if c.ot != nil {
		c.ot.OpMark("degraded.read", start)
	}
	return err
}

func (c *Client) degradedReadInner(buf []byte, packed uint64) error {
	mn, off := layout.UnpackAddr(packed)
	if err := readStripeRange(c.ctx, c.cl, packed, buf); err == nil {
		return nil
	}
	// Second failure took the row parity too (§3.4.1 remark 2): fall
	// back to full-stripe reconstruction from whatever survives.
	if err := readStripeRangeFull(c.ctx, c.cl, packed, buf); err == nil {
		return nil
	}
	return c.waitBlocksAndRead(buf, int(mn), off)
}

// waitBlocksAndRead waits for tier-3 recovery of mn and retries a
// plain read (used when degraded decoding is impossible, e.g. a double
// failure hit both the data and the row-parity MN).
func (c *Client) waitBlocksAndRead(buf []byte, mn int, off uint64) error {
	for {
		_, failed, _, blocksReady := c.cl.view.snapshotMN(mn)
		if !failed && blocksReady {
			addr, ok := c.cl.Addr(mn, off)
			if !ok {
				continue
			}
			return c.vread(buf, addr)
		}
		c.ctx.Sleep(500 * time.Microsecond)
	}
}

// --- writes (INSERT / UPDATE / DELETE) ---

// Insert stores the key-value pair (upserting if present).
func (c *Client) Insert(key, val []byte) error {
	c.Stats.Inserts++
	return c.tracedWrite("insert", key, val, false)
}

// Update overwrites the value of key (upserting if absent).
func (c *Client) Update(key, val []byte) error {
	c.Stats.Updates++
	return c.tracedWrite("update", key, val, false)
}

// Delete removes key by committing a tombstone KV pair (a zero-length
// value "used solely for logging", §4.2). It returns ErrNotFound when
// the key is absent.
func (c *Client) Delete(key []byte) error {
	c.Stats.Deletes++
	return c.tracedWrite("delete", key, nil, true)
}

// tracedWrite brackets write with an op span (name must be a static
// string). ErrNotFound is an answer, not a failure.
func (c *Client) tracedWrite(name string, key, val []byte, tombstone bool) error {
	if c.ot == nil {
		return c.write(key, val, tombstone)
	}
	c.ot.OpBegin(name)
	err := c.write(key, val, tombstone)
	c.ot.OpEnd(err != nil && !errors.Is(err, ErrNotFound))
	return err
}

// write implements Algorithm 1 (slot versioning) around the
// out-of-place write path: place the new KV and its deltas, then
// commit with one CAS on the slot's Atomic word.
func (c *Client) write(key, val []byte, tombstone bool) error {
	c.Stats.Ops++
	h := racehash.Hash(key)
	mn := racehash.HomeMN(h, c.cl.Cfg.Layout.NumMNs)
	fp := racehash.Fingerprint(h)
	lockWait := time.Duration(0)

	for attempt := 0; attempt < maxOpRetries; attempt++ {
		c.waitIndexReady(mn)
		slotOff, atomOld, metaOld, found, isTomb, err := c.locateForWrite(key, h, mn, fp)
		if err != nil {
			if errors.Is(err, ErrNotFound) && tombstone {
				return ErrNotFound
			}
			if errors.Is(err, rdma.ErrNodeFailed) {
				c.ctx.Sleep(100 * time.Microsecond)
				continue
			}
			if errors.Is(err, errTornRead) {
				// A committed slot pointed at a torn or unwritten pair —
				// a fused commit's KV write still in flight (or being
				// repaired). Transient by construction: retry.
				c.ctx.Sleep(20 * time.Microsecond)
				continue
			}
			return err
		}
		if tombstone && (!found || isTomb) {
			return ErrNotFound
		}

		// Slot versioning (Algorithm 1).
		verNew := uint8(1)
		epochKV := uint64(0)
		var lockedVal uint64 // non-zero when we hold the Meta lock
		metaAddr, _ := c.cl.Addr(mn, slotOff+layout.SlotMetaOff)
		if found {
			if metaOld.Locked() {
				// Another client is rolling the epoch: retry, and
				// after LockTimeout force-relock (remark 2, §3.2.2).
				c.Stats.LockWaits++
				if lockWait < c.cl.Cfg.LockTimeout {
					waitStart := c.ctx.Now()
					c.ctx.Sleep(c.cl.Cfg.LockRetry)
					if c.ot != nil {
						c.ot.OpMark("lock.wait", waitStart)
					}
					lockWait += c.cl.Cfg.LockRetry
					c.forgetCache(h, key)
					continue
				}
				force := layout.SlotMeta{Epoch: metaOld.Epoch + 2, Len: metaOld.Len}
				prev, err := c.vcas(metaAddr, metaOld.Pack(), force.Pack())
				if err != nil || prev != metaOld.Pack() {
					lockWait = 0
					c.forgetCache(h, key)
					continue
				}
				lockedVal = force.Pack()
				metaOld = force
				epochKV = force.Epoch + 1
			}
			atom := layout.UnpackAtomic(atomOld)
			verNew = atom.Ver + 1 // wraps at 255→0
			if lockedVal == 0 {
				if atom.Ver == layout.VerMax {
					// Epoch rollover: lock Meta by making it odd.
					lock := layout.SlotMeta{Epoch: metaOld.Epoch + 1, Len: metaOld.Len}
					prev, err := c.vcas(metaAddr, metaOld.Pack(), lock.Pack())
					if err != nil || prev != metaOld.Pack() {
						c.Stats.CASRetries++
						c.forgetCache(h, key)
						continue
					}
					lockedVal = lock.Pack()
					epochKV = metaOld.Epoch + 2
				} else {
					epochKV = metaOld.Epoch
				}
			}
		}
		slotVersion := layout.SlotVersion(epochKV, verNew)

		// Fuse the commit CAS into the placement doorbell (DESIGN.md
		// §13). Every attempt holds a slot here: a located one, the
		// free slot an INSERT claims (expected word 0), or one whose
		// Meta lock it holds for a rollover or force-relock — the lock
		// and unlock CASes stay outside the batch.
		var fuse *fuseSpec
		switch {
		case !c.cl.Cfg.FusedCommit:
			c.noteFallback(&c.wmet.FallbackDisabled)
		case !c.ordered:
			c.noteFallback(&c.wmet.FallbackCapability)
		default:
			if slotAddr, ok := c.cl.Addr(mn, slotOff); ok {
				f := &c.wsc.fuse
				*f = fuseSpec{slotAddr: slotAddr, atomOld: atomOld, fp: fp, verNew: verNew}
				fuse = f
			} else {
				c.noteFallback(&c.wmet.FallbackAddr)
			}
		}

		var batchStart time.Duration
		if c.ot != nil && fuse != nil {
			batchStart = c.ctx.Now()
		}

		// Out-of-place write of the KV pair and its deltas — with the
		// commit CAS riding the same doorbell when fused.
		placed, err := c.placeKV(key, val, slotVersion, tombstone, fuse)
		if err != nil {
			if lockedVal != 0 {
				c.unlockMeta(metaAddr, lockedVal, epochKV, metaOld.Len)
			}
			return err
		}
		if placed.deltaSkips > 0 {
			c.Stats.DeltaSkips += uint64(placed.deltaSkips)
			c.wmet.DeltaSkips.Add(uint64(placed.deltaSkips))
		}
		classUnits := uint8(layout.KVClassSize(len(key), len(val)) / 64)

		newAtomic := placed.newAtomic
		committed := placed.committed
		if placed.fused {
			c.Stats.WriteFused++
			c.wmet.Fused.Add(1)
			if c.ot != nil {
				c.ot.OpMark("commit.fused", batchStart)
			}
		} else {
			// Commit: one CAS on the Atomic word (the commit point).
			newAtomic = layout.SlotAtomic{FP: fp, Ver: verNew, Addr: placed.addr}.Pack()
			slotAddr, ok := c.cl.Addr(mn, slotOff)
			if !ok {
				c.invalidateKV(placed)
				if lockedVal != 0 {
					c.unlockMeta(metaAddr, lockedVal, epochKV, metaOld.Len)
				}
				continue
			}
			prev, cerr := c.vcas(slotAddr, atomOld, newAtomic)
			committed = cerr == nil && prev == atomOld
		}
		if !committed {
			// Lost the race (or the CAS itself failed): invalidate our
			// KV pair (Algorithm 1 line 18) and retry against the fresh
			// slot state, with bounded backoff so a hot-key herd cannot
			// starve one client.
			c.Stats.CASRetries++
			c.invalidateKV(placed)
			c.markObsolete(placed.addr, classUnits)
			if lockedVal != 0 {
				c.unlockMeta(metaAddr, lockedVal, epochKV, metaOld.Len)
			}
			c.forgetCache(h, key)
			c.finishWrite()
			if attempt > 2 {
				shift := attempt
				if shift > 6 {
					shift = 6
				}
				c.ctx.Sleep(time.Duration(1+int(c.id)%4) * time.Microsecond << shift)
			}
			continue
		}

		// Committed. Unlock / repair the Meta word as needed.
		if lockedVal != 0 {
			c.unlockMeta(metaAddr, lockedVal, epochKV, classUnits)
		} else if !found || metaOld.Len != classUnits {
			// Stale length hint: single unsignaled RDMA_WRITE repair
			// (§3.2.2; fire-and-forget under selective signaling).
			m := layout.SlotMeta{Epoch: epochKV, Len: classUnits}
			sc := &c.wsc
			binary.LittleEndian.PutUint64(sc.metaW[:], m.Pack())
			sc.metaOp[0] = rdma.Op{Kind: rdma.OpWrite, Addr: metaAddr, Buf: sc.metaW[:]}
			c.Stats.WritesIssued++
			c.ctx.Post(sc.metaOp[:]) //nolint:errcheck // best-effort hint repair
		}
		if found {
			old := layout.UnpackAtomic(atomOld)
			c.markObsolete(old.Addr, layout.UnpackMeta(metaOld.Pack()).Len)
		}
		c.cacheSet(h, key, mn, slotOff, newAtomic,
			layout.SlotMeta{Epoch: epochKV, Len: classUnits}, tombstone, val)
		c.finishWrite()
		return nil
	}
	return ErrRetriesExhausted
}

// unlockMeta releases the Meta lock, installing the new even epoch and
// the current length hint (Algorithm 1 line 20).
func (c *Client) unlockMeta(addr rdma.GlobalAddr, lockedVal uint64, epochEven uint64, lenUnits uint8) {
	unlock := layout.SlotMeta{Epoch: epochEven, Len: lenUnits}
	c.vcas(addr, lockedVal, unlock.Pack()) //nolint:errcheck // a forced re-locker superseded us
}

// invalidateKV stamps InvalidVersion into an uncommitted KV pair so
// recovery never resurrects it (Algorithm 1 line 18). The pair's delta
// copies receive the matching XOR patch, preserving the stripe
// invariant DATA = enc ⊕ DELTA; placeKV precomputed the ops.
func (c *Client) invalidateKV(p placedKV) {
	if len(p.inv) == 0 {
		return
	}
	c.Stats.Invalidations++
	c.Stats.WritesIssued += uint64(len(p.inv))
	c.ctx.Post(p.inv) //nolint:errcheck // best effort
}

// forgetCache drops a (possibly stale) cache entry.
func (c *Client) forgetCache(h uint64, key []byte) { c.cache.remove(h, key) }

// finishWrite handles deferred post-commit work: sealing filled blocks
// and flushing batched free-bitmap updates. With the prefetcher
// running, both move off the critical path to the worker.
func (c *Client) finishWrite() {
	if len(c.pendingSeal) > 0 {
		if c.pf != nil && c.pf.enqueueSeal(c.pendingSeal) {
			c.pendingSeal = c.pendingSeal[:0]
		} else {
			for _, ob := range c.pendingSeal {
				c.sealBlock(ob)
			}
			c.pendingSeal = c.pendingSeal[:0]
		}
	}
	if c.pendingN >= c.cl.Cfg.BitmapFlushOps {
		c.FlushBitmaps()
	}
}

// locateForWrite finds the key's slot (via cache or index query). It
// returns the slot's offset, current Atomic word (0 if inserting into
// an empty slot), Meta word, whether the key already exists, and
// whether its committed pair is a tombstone.
func (c *Client) locateForWrite(key []byte, h uint64, mn int, fp uint8) (slotOff uint64, atomic uint64, meta layout.SlotMeta, found, isTomb bool, err error) {
	if c.cl.Cfg.CacheSlotAddr {
		// Trust the cache; a stale entry just costs one CAS retry. A
		// negative entry or miss candidate is no help here — it proves
		// (suspected) absence, not a slot location — so only positive
		// entries short-circuit.
		if ent := c.cache.lookup(h, key); ent != nil && ent.pos() {
			return ent.slotOff, ent.atomic, ent.meta, true, ent.tomb(), nil
		}
	}
	l := c.cl.L
	b1, b2, err := c.readBuckets(h, mn)
	if err != nil {
		return 0, 0, layout.SlotMeta{}, false, false, err
	}
	i1, i2 := racehash.BucketPair(h, l.NumBuckets())
	bucketIdx := []uint64{i1, i2}
	torn := false
	for _, m := range racehash.ScanBuckets(fp, b1, b2) {
		kv, err := c.readKV(m.Atomic, m.Meta)
		if err != nil || kv == nil {
			// Unreadable or fence-0 pair under a committed slot: it may
			// be this very key mid-placement (fused commit window).
			// Concluding absence here would insert a duplicate into a
			// second slot, so force a retry instead.
			torn = true
			continue
		}
		if bytes.Equal(kv.Key, key) {
			off := l.SlotOff(bucketIdx[m.Bucket], m.Slot)
			return off, m.Atomic.Pack(), m.Meta, true, kv.Tombstone, nil
		}
	}
	if torn {
		return 0, 0, layout.SlotMeta{}, false, false, errTornRead
	}
	// Insert path: the preferred bucket is derived from the key hash
	// (balancing load across the pair) and the slot choice is the
	// first free one — deterministic per key, so racing inserters of
	// the same key collide on the same slot and the CAS resolves them.
	first, second := b1, b2
	fi, si := i1, i2
	if h>>32&1 == 1 {
		first, second = b2, b1
		fi, si = i2, i1
	}
	if s := racehash.FreeSlot(first); s >= 0 {
		return l.SlotOff(fi, s), 0, layout.SlotMeta{}, false, false, nil
	}
	if s := racehash.FreeSlot(second); s >= 0 {
		return l.SlotOff(si, s), 0, layout.SlotMeta{}, false, false, nil
	}
	return 0, 0, layout.SlotMeta{}, false, false, fmt.Errorf("aceso: both buckets full for key %q (resize not triggered)", key)
}

// placedKV describes a placed KV pair: its packed address, the
// precomputed invalidation ops (version-field patches for the pair and
// every delta copy), how many delta copies were skipped (dead target
// or lost write), and — for fused attempts — the commit outcome.
type placedKV struct {
	addr       uint64
	inv        []rdma.Op
	deltaSkips int
	fused      bool   // the commit CAS rode the placement batch
	committed  bool   // ... and won (meaningless unless fused)
	newAtomic  uint64 // the Atomic word the fused CAS installed
}

// placeKV appends the KV pair to an open DATA block of the right size
// class, writing the pair and its per-parity deltas in one doorbell
// batch (Figure 6 ①). With a fuse spec the commit CAS is appended as
// the batch tail — the ordered-batch contract guarantees it executes
// only after every placement write completed, so the commit costs no
// round trip of its own (DESIGN.md §13). A fused batch is issued
// exactly once; the caller resolves the outcome from placedKV rather
// than placeKV retrying.
// All buffers and op slices come from the client's writeScratch, so a
// steady-state call is allocation-free.
func (c *Client) placeKV(key, val []byte, slotVersion uint64, tombstone bool, fuse *fuseSpec) (placedKV, error) {
	classSize := layout.KVClassSize(len(key), len(val))
	classUnits := uint8(classSize / 64)
	sc := &c.wsc
	for {
		ob, err := c.getBlock(classUnits)
		if err != nil {
			return placedKV{}, err
		}
		slot := ob.slots[0]
		off := c.cl.L.BlockOff(ob.idx) + uint64(slot*ob.slotSize)

		fence := uint8(1)
		var oldSlot []byte
		if ob.reused {
			oldSlot = ob.oldData[slot*ob.slotSize : (slot+1)*ob.slotSize]
			fence = layout.NextFence(oldSlot[0])
		}
		buf := sc.growBuf(ob.slotSize)
		layout.EncodeKV(buf, key, val, slotVersion, fence, tombstone)
		delta := buf
		if ob.reused {
			delta = sc.growDelta(ob.slotSize)
			copy(delta, buf)
			erasure.XorInto(delta, oldSlot)
		}

		dataAddr, ok := c.cl.Addr(ob.mn, off)
		if !ok {
			// Data MN died: abandon the block and allocate elsewhere
			// (§3.4.1: bypass failed MNs).
			delete(c.open, ob.class)
			continue
		}
		ops := sc.ops[:0]
		ops = append(ops, rdma.Op{Kind: rdma.OpWrite, Addr: dataAddr, Buf: buf})

		// Precompute the invalidation patch: stamping InvalidVersion
		// into the data slot changes the delta word by
		// slotVersion ⊕ InvalidVersion, keeping DATA = enc ⊕ DELTA.
		p := placedKV{addr: layout.PackAddr(uint16(ob.mn), off)}
		binary.LittleEndian.PutUint64(sc.invData[:], layout.InvalidVersion)
		inv := sc.inv[:0]
		inv = append(inv, rdma.Op{Kind: rdma.OpWrite,
			Addr: dataAddr.Add(layout.KVVersionOff), Buf: sc.invData[:]})
		deltaVer := binary.LittleEndian.Uint64(delta[layout.KVVersionOff:]) ^ slotVersion ^ layout.InvalidVersion
		binary.LittleEndian.PutUint64(sc.invDelta[:], deltaVer)

		// Delta copies the stripe wants but this write cannot reach
		// count as skips, so fault-bound accounting sees the real
		// fan-out rather than silently shrinking it.
		skips := c.cl.Cfg.deltaCopies() - len(ob.deltas)
		for _, dt := range ob.deltas {
			a, ok := c.cl.Addr(dt.mn, dt.blockOff+uint64(slot*ob.slotSize))
			if !ok {
				skips++
				continue
			}
			ops = append(ops, rdma.Op{Kind: rdma.OpWrite, Addr: a, Buf: delta})
			inv = append(inv, rdma.Op{Kind: rdma.OpWrite,
				Addr: a.Add(layout.KVVersionOff), Buf: sc.invDelta[:]})
		}
		nDelta := len(ops) - 1
		if fuse != nil {
			p.fused = true
			p.newAtomic = layout.SlotAtomic{FP: fuse.fp, Ver: fuse.verNew, Addr: p.addr}.Pack()
			ops = append(ops, rdma.Op{Kind: rdma.OpCAS,
				Addr: fuse.slotAddr, Old: fuse.atomOld, New: p.newAtomic})
		}
		err = c.vbatch(ops)
		sc.ops, sc.inv = ops, inv // retain grown capacity
		// Per-op accounting: a failed delta copy is a skip (the commit
		// may still proceed — fault tolerance degrades for this pair,
		// it must not become a lost update); a failed data write aborts
		// (unfused) or forces a repair/abandon decision (fused).
		for i := 1; i <= nDelta; i++ {
			if ops[i].Err != nil {
				skips++
			}
		}
		p.deltaSkips = skips
		p.inv = inv
		dataErr := ops[0].Err
		if p.fused {
			cas := &ops[len(ops)-1]
			p.committed = cas.Err == nil && cas.Result == fuse.atomOld
			if p.committed && dataErr != nil {
				// The tail CAS won but the KV write it publishes was
				// chaos-lost or its MN failed mid-batch. Readers at the
				// published address see a fence-0/torn pair and retry
				// (errTornRead), or reconstruct from the deltas if the
				// MN is gone — so re-issuing the write here closes the
				// window without violating the commit.
				c.repairDataWrite(dataAddr, buf)
			}
			if dataErr != nil && !p.committed {
				delete(c.open, ob.class) // block's MN failing: stop using it
			} else {
				c.consumeSlot(ob)
			}
			return p, nil
		}
		if err != nil && dataErr != nil { // data write failed: new block
			delete(c.open, ob.class)
			continue
		}
		c.consumeSlot(ob)
		return p, nil
	}
}

// consumeSlot pops the slot just written from the open block, queueing
// the block for sealing when it fills (deferred past the commit CAS,
// §3.2.3).
func (c *Client) consumeSlot(ob *openBlock) {
	ob.slots = ob.slots[1:]
	if len(ob.slots) == 0 {
		c.pendingSeal = append(c.pendingSeal, ob)
		delete(c.open, ob.class)
	}
}

// repairDataWrite re-issues a committed-but-lost KV placement write
// until it lands or the target MN is declared failed (degraded reads
// cover the latter).
func (c *Client) repairDataWrite(addr rdma.GlobalAddr, buf []byte) {
	for i := 0; i < 8; i++ {
		c.Stats.WritesIssued++
		c.Stats.BytesWritten += uint64(len(buf))
		err := c.ctx.Write(addr, buf)
		if err == nil || errors.Is(err, rdma.ErrNodeFailed) {
			return
		}
		c.ctx.Sleep(5 * time.Microsecond)
	}
}

// getBlock returns the open DATA block for a size class. On exhaustion
// it first asks the prefetcher for a pre-provisioned block (hit: the
// AllocBlock/AllocDelta RPCs and any reused-block readback already
// happened off the critical path) and only then allocates
// synchronously. While a block drains below its low-water mark the
// prefetcher is asked to provision the next one in the background.
func (c *Client) getBlock(classUnits uint8) (*openBlock, error) {
	if ob, ok := c.open[classUnits]; ok && len(ob.slots) > 0 {
		if ep := c.cl.view.epochNow(); ep != ob.viewEpoch {
			// Membership changed: a recovered parity MN may have
			// relocated this block's DELTA blocks. Re-resolve them
			// (AllocDelta is idempotent).
			c.refreshDeltas(ob)
			ob.viewEpoch = ep
		}
		c.touchClass(classUnits)
		if c.pf != nil && len(ob.slots) <= c.lowWater(classUnits) {
			c.pf.requestRefill(classUnits)
		}
		return ob, nil
	}
	if c.pf != nil {
		if ob := c.pf.takeReady(classUnits); ob != nil {
			c.Stats.BlockPrefetchHits++
			c.wmet.PrefetchHits.Add(1)
			c.adoptBlock(ob)
			return ob, nil
		}
		c.Stats.BlockPrefetchMisses++
		c.wmet.PrefetchMisses.Add(1)
	}
	seq := c.allocSeq
	ob, err := c.provisionBlock(c.ctx, classUnits, &seq, &c.Stats)
	c.allocSeq = seq
	if err != nil {
		return nil, err
	}
	c.adoptBlock(ob)
	return ob, nil
}

// lowWater is the remaining-slot threshold that triggers a background
// refill: a quarter of the block's slot capacity, at least one.
func (c *Client) lowWater(classUnits uint8) int {
	lw := c.cl.L.KVSlotsPerBlock(classUnits) / 4
	if lw < 1 {
		lw = 1
	}
	return lw
}

// adoptBlock installs a freshly provisioned block as the class's open
// block, refreshing its delta targets if membership moved since it was
// provisioned (prefetched blocks can sit for a while).
func (c *Client) adoptBlock(ob *openBlock) {
	if ob.reused {
		c.Stats.BlocksReused++
	} else {
		c.Stats.BlocksAlloc++
	}
	if ep := c.cl.view.epochNow(); ep != ob.viewEpoch {
		c.refreshDeltas(ob)
		ob.viewEpoch = ep
	}
	c.open[ob.class] = ob
	c.touchClass(ob.class)
	c.boundOpen()
}

// provisionBlock allocates a fresh or reclaimed DATA block (plus its
// DELTA blocks on the stripe's parity MNs) through ctx. It runs on the
// client's own process or, via the prefetcher, on the background
// worker — so it must not touch any Client state beyond the immutable
// id/cluster handle. st receives read accounting (nil from the
// worker: its verbs are not client ops).
func (c *Client) provisionBlock(ctx rdma.Ctx, classUnits uint8, seq *int, st *ClientStats) (*openBlock, error) {
	l := c.cl.L
	n := l.Cfg.NumMNs
	for try := 0; try < n; try++ {
		mn := (int(c.id) + *seq + try) % n
		node, alive := c.cl.view.nodeOf(mn)
		if !alive {
			continue
		}
		var e enc
		e.u16(c.id)
		e.u8(classUnits)
		resp, err := ctx.RPC(node, methodAllocBlock, e.b)
		if err != nil || len(resp) == 0 || resp[0] != stOK {
			continue
		}
		*seq++
		d := dec{b: resp[1:]}
		idx := int(d.u32())
		stripe := d.u32()
		xorID := d.u8()
		reused := d.u8() == 1
		copyIdx := d.u32()
		oldBits := d.bytes()

		ob := &openBlock{
			class: classUnits, mn: mn, idx: idx, stripe: stripe, xorID: xorID,
			copyIdx: copyIdx, reused: reused,
			slotSize:  int(classUnits) * 64,
			viewEpoch: c.cl.view.epochNow(),
		}
		capSlots := l.KVSlotsPerBlock(classUnits)
		if reused {
			// Read the whole reused block back (§3.3.3 ②): the extra
			// cost is bandwidth, not IOPS, hence the ≤5% impact.
			ob.oldData = make([]byte, l.Cfg.BlockSize)
			if err := c.readChunkedCtx(ctx, mn, l.BlockOff(idx), ob.oldData, st); err != nil {
				continue
			}
			for s := 0; s < capSlots; s++ {
				if layout.BitmapGet(oldBits, s) {
					ob.slots = append(ob.slots, s)
				}
			}
		} else {
			for s := 0; s < capSlots; s++ {
				ob.slots = append(ob.slots, s)
			}
		}
		// Allocate the DELTA blocks on the stripe's parity MNs.
		for j := 0; j < c.cl.Cfg.deltaCopies(); j++ {
			pmn := l.ParityMN(stripe, j)
			pnode, alive := c.cl.view.nodeOf(pmn)
			if !alive {
				continue
			}
			var de enc
			de.u16(c.id)
			de.u32(stripe)
			de.u8(xorID)
			de.u8(classUnits)
			dresp, err := ctx.RPC(pnode, methodAllocDelta, de.b)
			if err != nil || len(dresp) == 0 || dresp[0] != stOK {
				continue
			}
			dd := dec{b: dresp[1:]}
			ob.deltas = append(ob.deltas, deltaTarget{mn: pmn, blockOff: l.BlockOff(int(dd.u32()))})
		}
		return ob, nil
	}
	return nil, ErrNoSpace
}

// touchClass moves a size class to the most-recently-used end of the
// open-block LRU order.
func (c *Client) touchClass(class uint8) {
	for i, cl := range c.openLRU {
		if cl == class {
			copy(c.openLRU[i:], c.openLRU[i+1:])
			c.openLRU[len(c.openLRU)-1] = class
			return
		}
	}
	c.openLRU = append(c.openLRU, class)
}

// boundOpen enforces maxOpenClasses by sealing the least-recently-used
// class's partially filled block early. Its unwritten slots are safe to
// seal over — they are zero in both DATA and DELTA, so the stripe
// invariant holds — and merely leak until reclamation hands the block
// out again. The seal itself is deferred to finishWrite (post-commit),
// matching the normal seal ordering.
func (c *Client) boundOpen() {
	for len(c.open) > maxOpenClasses && len(c.openLRU) > 0 {
		victim := c.openLRU[0]
		c.openLRU = c.openLRU[1:]
		if ob, ok := c.open[victim]; ok {
			delete(c.open, victim)
			c.pendingSeal = append(c.pendingSeal, ob)
		}
	}
}

// refreshDeltas re-resolves an open block's DELTA-block targets after
// a membership change (recovery may have relocated or dropped them).
func (c *Client) refreshDeltas(ob *openBlock) {
	l := c.cl.L
	ob.deltas = ob.deltas[:0]
	for j := 0; j < c.cl.Cfg.deltaCopies(); j++ {
		pmn := l.ParityMN(ob.stripe, j)
		pnode, alive := c.cl.view.nodeOf(pmn)
		if !alive {
			continue
		}
		var de enc
		de.u16(c.id)
		de.u32(ob.stripe)
		de.u8(ob.xorID)
		de.u8(ob.class)
		dresp, err := c.ctx.RPC(pnode, methodAllocDelta, de.b)
		if err != nil || len(dresp) == 0 || dresp[0] != stOK {
			continue
		}
		dd := dec{b: dresp[1:]}
		ob.deltas = append(ob.deltas, deltaTarget{mn: pmn, blockOff: l.BlockOff(int(dd.u32()))})
	}
}

// readChunked reads a whole block in ChunkBytes pieces on the
// client's own process.
func (c *Client) readChunked(mn int, off uint64, dst []byte) error {
	return c.readChunkedCtx(c.ctx, mn, off, dst, &c.Stats)
}

// readChunkedCtx reads a whole block in ChunkBytes pieces through ctx,
// accounting into st when non-nil (nil from the prefetch worker).
func (c *Client) readChunkedCtx(ctx rdma.Ctx, mn int, off uint64, dst []byte, st *ClientStats) error {
	chunk := c.cl.Cfg.ChunkBytes
	for pos := 0; pos < len(dst); pos += chunk {
		end := pos + chunk
		if end > len(dst) {
			end = len(dst)
		}
		addr, ok := c.cl.Addr(mn, off+uint64(pos))
		if !ok {
			return rdma.ErrNodeFailed
		}
		if st != nil {
			st.ReadsIssued++
			st.BytesRead += uint64(end - pos)
		}
		if err := ctx.Read(dst[pos:end], addr); err != nil {
			return err
		}
	}
	return nil
}

// sealBlock notifies the data MN (Index Version stamp) and the parity
// MNs (fold the DELTA into the PARITY block) that the block is full
// (Figure 6 ②③④).
func (c *Client) sealBlock(ob *openBlock) { c.sealBlockCtx(c.ctx, ob) }

// sealBlockCtx is sealBlock through an explicit ctx, so the prefetch
// worker can seal off the critical path.
func (c *Client) sealBlockCtx(ctx rdma.Ctx, ob *openBlock) {
	var e enc
	e.u32(uint32(ob.idx))
	e.u32(ob.copyIdx)
	if node, alive := c.cl.view.nodeOf(ob.mn); alive {
		ctx.RPC(node, methodSealBlock, e.b) //nolint:errcheck // recovery rescans unsealed blocks
	}
	for _, dt := range ob.deltas {
		if node, alive := c.cl.view.nodeOf(dt.mn); alive {
			var de enc
			de.u32(ob.stripe)
			de.u8(ob.xorID)
			ctx.RPC(node, methodEncodeDelta, de.b) //nolint:errcheck // delta stays pending, still decodable
		}
	}
}

// markObsolete queues a free-bitmap update for an overwritten KV pair
// (§3.3.3 ①).
func (c *Client) markObsolete(packed uint64, lenUnits uint8) {
	if packed == 0 || lenUnits == 0 {
		return
	}
	mnU, off := layout.UnpackAddr(packed)
	bi := c.cl.L.BlockOfOff(off)
	if bi < 0 {
		return
	}
	slot := (off - c.cl.L.BlockOff(bi)) / (uint64(lenUnits) * 64)
	k := pendKey{mn: int(mnU), block: bi}
	c.pending[k] = append(c.pending[k], uint32(slot))
	c.pendingN++
}

// maxPendingKeys bounds how many drained pending-bitmap entries keep
// their slice capacity in the map for reuse; beyond it, entries are
// deleted so a churn workload touching many blocks cannot grow the map
// without bound.
const maxPendingKeys = 64

// FlushBitmaps sends all queued free-bitmap updates to their servers.
// Clients flush automatically every Config.BitmapFlushOps markings;
// harnesses call it at workload end. Flush order is sorted so
// simulated runs stay deterministic. With the prefetcher running, the
// payloads are built here (cheap) but the RPCs are issued by the
// background worker. Drained entries retain their slice capacity (up
// to maxPendingKeys) so steady-state flushes do not allocate.
func (c *Client) FlushBitmaps() {
	keys := c.flushKeys[:0]
	for k, bits := range c.pending {
		if len(bits) == 0 {
			if len(c.pending) > maxPendingKeys {
				delete(c.pending, k)
			}
			continue
		}
		keys = append(keys, k)
	}
	// Insertion sort: the key list is a handful of blocks, and
	// sort.Slice's reflection allocates on a path the zero-alloc
	// UPDATE budget covers (flushes fire every BitmapFlushOps writes).
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && (keys[j].mn < keys[j-1].mn ||
			(keys[j].mn == keys[j-1].mn && keys[j].block < keys[j-1].block)); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		bits := c.pending[k]
		node, alive := c.cl.view.nodeOf(k.mn)
		if alive {
			c.sendFreeBits(node, k, bits)
		}
		c.pending[k] = bits[:0]
	}
	c.flushKeys = keys[:0]
	c.pendingN = 0
}

// sendFreeBits encodes and delivers one block's free-bitmap update —
// through the prefetch worker when it is running, inline otherwise.
func (c *Client) sendFreeBits(node rdma.NodeID, k pendKey, bits []uint32) {
	var buf []byte
	if c.pf != nil {
		buf = c.pf.getBuf()
	} else {
		buf = c.flushEnc
	}
	e := enc{b: buf[:0]}
	e.u32(uint32(k.block))
	e.u16(uint16(len(bits)))
	for _, b := range bits {
		e.u32(b)
	}
	if c.pf != nil && c.pf.enqueueFlush(flushJob{node: node, payload: e.b}) {
		return
	}
	c.ctx.RPC(node, methodFreeBits, e.b) //nolint:errcheck // obsolete hints are advisory
	if c.pf != nil {
		c.pf.putBuf(e.b)
	} else {
		c.flushEnc = e.b[:0]
	}
}

// Close stops the prefetch worker (draining its queued seals and
// bitmap flushes inline), flushes pending state and returns the cache
// and mirror gauge contributions to the cluster aggregate; open blocks
// stay unsealed and are safely rescanned by recovery.
func (c *Client) Close() {
	if c.pf != nil {
		seals, flushes := c.pf.stop()
		for _, ob := range seals {
			c.sealBlock(ob)
		}
		for _, fj := range flushes {
			c.ctx.RPC(fj.node, methodFreeBits, fj.payload) //nolint:errcheck // obsolete hints are advisory
		}
	}
	c.FlushBitmaps()
	c.cache.release()
	c.mirror.release()
}
