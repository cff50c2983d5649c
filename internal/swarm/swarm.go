// Package swarm implements a SWARM-style synchronous in-place
// replication mode (PAPERS.md: "SWARM: Replicating Shared Disaggregated
// Memory") on the existing verb fabric. It marks a third point on the
// fault-tolerance design spectrum next to Aceso's erasure-coded hybrid
// and FUSEE's full replication:
//
//   - Like FUSEE, every KV pair lives as n full copies on n memory
//     nodes and the hash index is n-way replicated, so an MN fail-stop
//     needs no rebuild — survivors carry the data. The two modes share
//     that substrate (internal/replica).
//   - Unlike FUSEE, updates do not re-place the pair and re-CAS every
//     index replica. A slot's copies are fixed in place at insert; an
//     update is one CAS on the primary's version word (serializing
//     writers) followed by ONE doorbell batch of in-place copy
//     overwrites — a single round trip of data writes regardless of n,
//     SWARM's "in-place, single-RTT" replicated write.
//
// Index slots are 16 bytes: word0 packs fingerprint|address (committed
// once by the insert's CAS, stable thereafter), word1 is the version
// the copies are stamped with. Readers validate a copy's embedded
// slot version against word1 and retry while a writer is in flight;
// fences (layout.EncodeKV) catch torn overwrites. The protocol shares
// FUSEE's conflict-resolution corner cases under adversarial delay
// (a delayed insert loser's version write can race a later update);
// like the FUSEE baseline, it reproduces the mechanism's cost shape,
// not a verified consensus protocol.
//
// The mode registers as core.FTModeSwarm.
package swarm

import (
	"bytes"
	"encoding/binary"
	"errors"

	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
	"repro/internal/replica"
)

func init() { replica.Register(core.FTModeSwarm, slotBytes, newClient) }

// slotBytes is the fixed index slot width: word0 = fp|addr (atomic),
// word1 = version.
const slotBytes = 16

// Config parameterises the mode.
type Config struct {
	// NumMNs is the memory-node count.
	NumMNs int
	// Replicas is the replication factor n (index partitions and KV
	// copies alike).
	Replicas int
	// PartitionBytes is the per-partition index size (each MN hosts
	// Replicas partitions, like the FUSEE baseline's layout).
	PartitionBytes uint64
	// BlockSize and BlocksPerMN size the KV block area.
	BlockSize   uint64
	BlocksPerMN int
	// CacheValues enables the client slot cache (location + copy
	// addresses, so cached reads skip the bucket walk).
	CacheValues bool
}

// DefaultConfig mirrors the FUSEE baseline's scaled-down geometry.
func DefaultConfig() Config {
	return Config{
		NumMNs:         5,
		Replicas:       3,
		PartitionBytes: 1 << 20,
		BlockSize:      2 << 20,
		BlocksPerMN:    48,
		CacheValues:    true,
	}
}

// NewCluster creates the mode's memory nodes and installs its RPC
// handlers (block allocation, admin kill).
func NewCluster(cfg Config, pl rdma.Platform) (*replica.Cluster, error) {
	return replica.NewCluster(core.FTModeSwarm, replica.Config{
		NumMNs:         cfg.NumMNs,
		Replicas:       cfg.Replicas,
		SlotBytes:      slotBytes,
		PartitionBytes: cfg.PartitionBytes,
		BlockSize:      cfg.BlockSize,
		BlocksPerMN:    cfg.BlocksPerMN,
		CacheValues:    cfg.CacheValues,
	}, pl, newClient)
}

// fenceFor returns the copy fence for a version (alternates 1/2 so a
// torn in-place overwrite is distinguishable from the intact old pair).
func fenceFor(ver uint64) uint8 { return uint8(1 + ver&1) }

// cacheEnt caches a key's slot location and per-replica copy
// addresses. In-place replication makes this cache strong: word0 is
// immutable after insert (absent reallocation), so a cached read
// validates with one 16 B slot read batched with the copy read.
type cacheEnt struct {
	bucket  uint64
	slotIdx int
	words   []uint64 // per replica, packed word0 (0 = unknown)
	class   int      // copy class size (bytes)
}

// complete reports whether the cache entry knows word0 for at least
// every live replica position it will write.
func (e *cacheEnt) complete(liveCount int) bool {
	n := 0
	for _, w := range e.words {
		if w != 0 {
			n++
		}
	}
	return n >= liveCount && e.class > 0
}

// Client is a swarm-mode client.
type Client struct {
	replica.Client
	cache map[string]*cacheEnt
}

func newClient(base replica.Client) ftmode.Client {
	return &Client{Client: base, cache: make(map[string]*cacheEnt)}
}

var (
	// errStaleCache sends a cached read down the search path.
	errStaleCache = errors.New("swarm: stale cache")
	// errConflict signals a lost insert race (retry with re-locate).
	errConflict = errors.New("swarm: insert conflict")
)

// wordsOf extracts (word0, word1) of slot s from a raw bucket.
func wordsOf(buf []byte, s int) (w0, w1 uint64) {
	w0 = binary.LittleEndian.Uint64(buf[s*slotBytes:])
	w1 = binary.LittleEndian.Uint64(buf[s*slotBytes+8:])
	return
}

// guessSize speculates the copy size for the first read of a key.
func (c *Client) guessSize(key []byte) int {
	if ent, ok := c.cache[string(key)]; ok && ent.class > 0 {
		return ent.class
	}
	return 1024 + 64
}

// Search returns the value of key, or ErrNotFound. Reads validate the
// copy's embedded slot version against the index slot's version word
// and retry while a writer's in-place overwrite is in flight; after an
// MN failure they fail over to a surviving replica.
func (c *Client) Search(key []byte) ([]byte, error) {
	c.Stats.Ops++
	cfg := &c.Cl.Cfg
	h := racehash.Hash(key)
	p := racehash.HomeMN(h, cfg.NumMNs)
	fp := racehash.Fingerprint(h)
	b1, b2 := c.Buckets(h)

	if ent, ok := c.cache[string(key)]; ok && cfg.CacheValues {
		if val, err := c.cachedRead(key, ent, p); err == nil || errors.Is(err, replica.ErrNotFound) {
			return val, err
		}
	}
	for attempt := 0; attempt < replica.MaxOpRetries; attempt++ {
		live := c.LiveReplicas(p)
		if len(live) == 0 {
			return nil, replica.ErrAllReplicasFailed(p)
		}
		ri := live[0]
		buf1, buf2, err := c.ReadBucketPair(p, ri, b1, b2)
		if err != nil {
			if errors.Is(err, rdma.ErrNodeFailed) {
				continue // fail over to the next surviving replica
			}
			return nil, err
		}
		unstable := false
		for bi, buf := range [][]byte{buf1, buf2} {
			bucket := b1
			if bi == 1 {
				bucket = b2
			}
			for _, s := range c.Scan(fp, buf) {
				w0, w1 := wordsOf(buf, s)
				kv, err := c.ReadKVFailover(p, bucket, s, w0, c.guessSize(key))
				if err != nil {
					if errors.Is(err, layout.ErrTornKV) {
						unstable = true
					}
					continue
				}
				// An empty copy is an insert in flight (word0-committed
				// paths write copies first).
				if kv == nil || !bytes.Equal(kv.Key, key) {
					continue
				}
				if kv.SlotVersion < w1 {
					// An in-place overwrite is landing: the copy read
					// raced ahead of the version word. Retry.
					unstable = true
					continue
				}
				if ri == 0 && cfg.CacheValues {
					words := make([]uint64, cfg.Replicas)
					words[0] = w0
					c.cache[string(key)] = &cacheEnt{bucket: bucket, slotIdx: s,
						words: words, class: layout.KVClassSize(len(kv.Key), len(kv.Val))}
				}
				if kv.Tombstone {
					return nil, replica.ErrNotFound
				}
				return append([]byte(nil), kv.Val...), nil
			}
		}
		if unstable {
			c.Backoff(attempt)
			continue
		}
		return nil, replica.ErrNotFound
	}
	return nil, replica.ErrRetriesExhausted
}

// cachedRead validates a cache hit with one batched round trip: the
// 16 B slot (word0 stability + current version) plus the speculative
// copy read — the in-place design's read-path win over FUSEE's full
// bucket re-walk.
func (c *Client) cachedRead(key []byte, ent *cacheEnt, p int) ([]byte, error) {
	if ent.words[0] == 0 || c.Cl.Failed(c.Cl.Cfg.ReplicaMN(p, 0)) {
		return nil, errStaleCache
	}
	kmn, kvAddr := c.KVAddr(replica.SlotAddr(ent.words[0]))
	if c.Cl.Failed(kmn) {
		return nil, errStaleCache
	}
	_, slotAddr := c.SlotAt(p, 0, ent.bucket, ent.slotIdx)
	slotBuf := make([]byte, slotBytes)
	kvBuf := make([]byte, ent.class)
	ops := []rdma.Op{
		{Kind: rdma.OpRead, Addr: slotAddr, Buf: slotBuf},
		{Kind: rdma.OpRead, Addr: kvAddr, Buf: kvBuf},
	}
	c.Stats.ReadsIssued += 2
	c.Stats.BytesRead += uint64(slotBytes + ent.class)
	if err := c.Ctx.Batch(ops); err != nil {
		return nil, err
	}
	w0, w1 := wordsOf(slotBuf, 0)
	if w0 != ent.words[0] {
		return nil, errStaleCache // reallocated
	}
	// Decode at the header's true class: an in-place shrink leaves the
	// new trailing fence before the end of the cached class size.
	if kvBuf[0] == 0 {
		return nil, errStaleCache
	}
	keyLen := int(binary.LittleEndian.Uint16(kvBuf[2:]))
	valLen := int(binary.LittleEndian.Uint32(kvBuf[4:]))
	real := layout.KVClassSize(keyLen, valLen)
	if real > len(kvBuf) {
		return nil, errStaleCache // grew past the class
	}
	kv, err := layout.DecodeKV(kvBuf[:real])
	if err != nil || kv == nil || !bytes.Equal(kv.Key, key) || kv.SlotVersion < w1 {
		return nil, errStaleCache // writer in flight
	}
	if kv.Tombstone {
		return nil, replica.ErrNotFound
	}
	return append([]byte(nil), kv.Val...), nil
}

// Insert stores a key-value pair (upsert).
func (c *Client) Insert(key, val []byte) error { return c.write(key, val, false) }

// Update overwrites a key's value (upsert).
func (c *Client) Update(key, val []byte) error { return c.write(key, val, false) }

// Delete removes a key by an in-place replicated tombstone overwrite.
func (c *Client) Delete(key []byte) error { return c.write(key, nil, true) }

// write implements the SWARM-style write: first insert of a key
// commits via word0 CASes (backups then primary, as FUSEE resolves
// insert races); every subsequent write serializes on ONE version-word
// CAS and then lands all copies with ONE doorbell batch of in-place
// overwrites.
func (c *Client) write(key, val []byte, tombstone bool) error {
	c.Stats.Ops++
	cfg := &c.Cl.Cfg
	h := racehash.Hash(key)
	p := racehash.HomeMN(h, cfg.NumMNs)
	fp := racehash.Fingerprint(h)
	b1, b2 := c.Buckets(h)

	for attempt := 0; attempt < replica.MaxOpRetries; attempt++ {
		live := c.LiveReplicas(p)
		if len(live) == 0 {
			return replica.ErrAllReplicasFailed(p)
		}
		acting := live[0]

		// Locate the slot: cache first (valid location + full word set
		// after this client's own commit), else bucket walk.
		var (
			bucket  uint64
			slotIdx int
			ver     uint64
			words   []uint64
			class   int
			found   bool
		)
		if ent, ok := c.cache[string(key)]; ok && cfg.CacheValues && acting == 0 && ent.complete(len(live)) {
			bucket, slotIdx, class = ent.bucket, ent.slotIdx, ent.class
			words = append([]uint64(nil), ent.words...)
			// The version word still must be read fresh: CAS below
			// needs the current value.
			mn, verAddr := c.SlotAt(p, 0, bucket, slotIdx)
			verAddr.Off += 8
			var vb [8]byte
			c.Stats.ReadsIssued++
			c.Stats.BytesRead += 8
			if err := c.Ctx.Read(vb[:], verAddr); err != nil {
				if c.NoteErr(mn, err) {
					continue
				}
				return err
			}
			ver = binary.LittleEndian.Uint64(vb[:])
			found = true
		} else {
			var err error
			bucket, slotIdx, ver, words, class, found, err = c.locate(key, p, acting, fp, b1, b2, h, tombstone)
			if err != nil {
				if errors.Is(err, rdma.ErrNodeFailed) {
					c.RefreshView()
					continue
				}
				return err
			}
			if tombstone && !found {
				return replica.ErrNotFound
			}
		}

		size := layout.KVClassSize(len(key), len(val))
		if !found {
			// First insert: place copies, commit via word0 CAS rounds.
			err := c.insertSlot(key, val, tombstone, p, fp, bucket, slotIdx, size, live)
			if err == nil {
				return nil
			}
			if errors.Is(err, rdma.ErrNodeFailed) {
				c.RefreshView()
				continue
			}
			if errors.Is(err, errConflict) {
				c.Stats.CASRetries++
				delete(c.cache, string(key))
				c.Backoff(attempt)
				continue
			}
			return err
		}

		// In-place update: one CAS on the acting primary's version
		// word serializes writers...
		mn, verAddr := c.SlotAt(p, acting, bucket, slotIdx)
		verAddr.Off += 8
		c.Stats.CASIssued++
		prev, err := c.Ctx.CAS(verAddr, ver, ver+1)
		if err != nil {
			if c.NoteErr(mn, err) {
				continue
			}
			return err
		}
		if prev != ver {
			c.Stats.CASRetries++
			delete(c.cache, string(key))
			c.Backoff(attempt)
			continue
		}
		// ...then one doorbell batch lands every copy in place (plus
		// version words on the other replicas, so failover keeps the
		// version chain). Copies that no longer fit their class, or
		// whose MN died, are redirected to fresh blocks in the same
		// batch (word0 rewrite is safe: the version CAS is the lock).
		if err := c.landCopies(key, val, tombstone, p, fp, bucket, slotIdx, ver+1, size, class, words, live); err != nil {
			if errors.Is(err, rdma.ErrNodeFailed) {
				c.RefreshView()
				delete(c.cache, string(key))
				continue
			}
			return err
		}
		return nil
	}
	return replica.ErrRetriesExhausted
}

// locate walks the buckets from the acting replica and returns the
// key's slot (or a free slot), the current version word, the
// per-replica word0s of the slot, and the existing copy class.
func (c *Client) locate(key []byte, p, acting int, fp uint8, b1, b2, h uint64, tombstone bool) (bucket uint64, slotIdx int, ver uint64, words []uint64, class int, found bool, err error) {
	words = make([]uint64, c.Cl.Cfg.Replicas)
	buf1, buf2, err := c.ReadBucketPair(p, acting, b1, b2)
	if err != nil {
		return 0, 0, 0, nil, 0, false, err
	}
scan:
	for bi, buf := range [][]byte{buf1, buf2} {
		bkt := b1
		if bi == 1 {
			bkt = b2
		}
		for _, s := range c.Scan(fp, buf) {
			w0, w1 := wordsOf(buf, s)
			kv, kerr := c.ReadKVFailover(p, bkt, s, w0, c.guessSize(key))
			if kerr != nil || kv == nil || !bytes.Equal(kv.Key, key) {
				continue
			}
			bucket, slotIdx, ver = bkt, s, w1
			words[acting] = w0
			class = layout.KVClassSize(len(kv.Key), len(kv.Val))
			if len(kv.Val) == 0 {
				// Tombstones decode with an empty value; the slot's
				// copies keep their allocated class. Recover it from
				// the header-visible lengths only when larger.
				class = layout.KVClassSize(len(kv.Key), 0)
			}
			found = true
			break scan
		}
	}
	if !found {
		if tombstone {
			return 0, 0, 0, words, 0, false, nil
		}
		if bucket, slotIdx, err = c.FreeSlot(h, buf1, buf2, b1, b2); err != nil {
			return 0, 0, 0, nil, 0, false, err
		}
		return bucket, slotIdx, 0, words, 0, false, nil
	}
	// Read the other surviving replicas' word0s for the slot.
	var others []int
	for _, ri := range c.LiveReplicas(p) {
		if ri != acting {
			others = append(others, ri)
		}
	}
	if err := c.ReadSlotWords(p, others, bucket, slotIdx, words); err != nil {
		return 0, 0, 0, nil, 0, false, err
	}
	return bucket, slotIdx, ver, words, class, true, nil
}

// insertSlot commits a key's first write: place one copy per live
// replica position (distinct MNs), write them (version 1) together
// with the backup version words in one batch, then CAS word0 on the
// backups and finally the acting primary — the FUSEE-style insert-race
// commit.
func (c *Client) insertSlot(key, val []byte, tombstone bool, p int, fp uint8, bucket uint64, slotIdx, size int, live []int) error {
	cfg := &c.Cl.Cfg

	// Read the backup replicas' current word0s first: a lost insert
	// race can leave a loser's word on a backup, and the CAS below
	// must swing from whatever is there (as FUSEE's conflict
	// resolution does), not assume zero.
	backupOld := make([]uint64, cfg.Replicas)
	if err := c.ReadSlotWords(p, live[1:], bucket, slotIdx, backupOld); err != nil {
		return err
	}

	kvBuf := make([]byte, size)
	layout.EncodeKV(kvBuf, key, val, 1, fenceFor(1), tombstone)
	addrs, ops, err := c.PlaceCopies(kvBuf, len(live))
	if err != nil {
		return err
	}
	// Backup version words ride the copy batch (same value on every
	// inserter: 1).
	for _, ri := range live[1:] {
		ops = append(ops, c.slotWordWrite(p, ri, bucket, slotIdx, 8, 1))
	}
	if err := c.Ctx.Batch(ops); err != nil {
		c.DropBlocks(size)
		return err
	}
	// Word0 CAS rounds: backups first, acting primary commits.
	newWords := make([]uint64, cfg.Replicas)
	for i, ri := range live {
		newWords[ri] = replica.PackSlot(fp, addrs[i])
	}
	for _, ri := range live[1:] {
		mn, addr := c.SlotAt(p, ri, bucket, slotIdx)
		c.Stats.CASIssued++
		prev, err := c.Ctx.CAS(addr, backupOld[ri], newWords[ri])
		if err != nil {
			c.NoteErr(mn, err)
			return err
		}
		if prev != backupOld[ri] {
			return errConflict
		}
	}
	_, addr := c.SlotAt(p, live[0], bucket, slotIdx)
	c.Stats.CASIssued++
	prev, err := c.Ctx.CAS(addr, 0, newWords[live[0]])
	if err != nil {
		return err
	}
	if prev != 0 {
		return errConflict
	}
	if cfg.CacheValues && live[0] == 0 {
		c.cache[string(key)] = &cacheEnt{bucket: bucket, slotIdx: slotIdx, words: newWords, class: size}
	}
	c.Stats.ValidBytes += uint64(size)
	return nil
}

// slotWordWrite returns the (counted) write of v into the 8-byte word
// at byte off of slot (bucket, slotIdx) on replica ri: 0 is word0, 8
// the version word.
func (c *Client) slotWordWrite(p, ri int, bucket uint64, slotIdx, off int, v uint64) rdma.Op {
	_, addr := c.SlotAt(p, ri, bucket, slotIdx)
	addr.Off += uint64(off)
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, v)
	c.Stats.WritesIssued++
	c.Stats.BytesWritten += 8
	return rdma.Op{Kind: rdma.OpWrite, Addr: addr, Buf: buf}
}

// landCopies performs the in-place replicated write: one batch of copy
// overwrites stamped ver, backup version words, and word0 rewrites for
// any copy that had to move (class growth or a dead MN). The acting
// primary's version CAS (already done by the caller) is the lock that
// makes the plain writes safe.
func (c *Client) landCopies(key, val []byte, tombstone bool, p int, fp uint8, bucket uint64, slotIdx int, ver uint64, size, class int, words []uint64, live []int) error {
	cfg := &c.Cl.Cfg

	// Copies are always encoded at the pair's true class size: readers
	// recompute it from the header, so a shrinking overwrite inside a
	// larger slot stays self-describing (bytes past the new trailing
	// fence are never decoded).
	buf := make([]byte, size)
	layout.EncodeKV(buf, key, val, ver, fenceFor(ver), tombstone)

	// Live replicas whose copy can be overwritten in place write there;
	// the rest move to fresh blocks.
	var ops []rdma.Op
	var moved []int
	for _, ri := range live {
		w0 := words[ri]
		kmn, addr := c.KVAddr(replica.SlotAddr(w0))
		if w0 != 0 && replica.SlotFP(w0) == fp && size <= class && !c.Cl.Failed(kmn) {
			ops = append(ops, rdma.Op{Kind: rdma.OpWrite, Addr: addr, Buf: buf})
			c.Stats.WritesIssued++
			c.Stats.BytesWritten += uint64(size)
		} else {
			moved = append(moved, ri)
		}
	}
	newWords := append([]uint64(nil), words...)
	if len(moved) > 0 {
		addrs, placeOps, err := c.PlaceCopies(buf, len(moved))
		if err != nil {
			return err
		}
		ops = append(ops, placeOps...)
		for i, ri := range moved {
			newWords[ri] = replica.PackSlot(fp, addrs[i])
			ops = append(ops, c.slotWordWrite(p, ri, bucket, slotIdx, 0, newWords[ri]))
		}
	}
	// Backup version words (the acting primary's was set by the CAS).
	for _, ri := range live[1:] {
		ops = append(ops, c.slotWordWrite(p, ri, bucket, slotIdx, 8, ver))
	}
	if err := c.Ctx.Batch(ops); err != nil {
		return err
	}
	if cfg.CacheValues && live[0] == 0 {
		c.cache[string(key)] = &cacheEnt{bucket: bucket, slotIdx: slotIdx, words: newWords, class: max(class, size)}
	}
	return nil
}
