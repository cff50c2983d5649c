// Package fusee implements the replication-based baseline Aceso is
// evaluated against (§2.3, §4.1): a FUSEE-style fully-disaggregated KV
// store. Fault tolerance comes from synchronously maintained index
// replicas (every write CASes all backup index slots before committing
// on the primary) and from writing every KV pair to n memory nodes —
// the two costs (IOPS-heavy small CASes, n× space) that motivate
// Aceso's hybrid design.
//
// The baseline shares the verb fabric, KV encoding and hashing with
// Aceso so comparisons isolate the fault-tolerance mechanism, and the
// replicated-index substrate with the SWARM mode (internal/replica).
// What is FUSEE's own is the value-only read cache and the write
// commit. The slot width is configurable (8 B as in FUSEE, or 16 B) to
// reproduce the "+SLOT" step of the factor analysis (Figure 13).
//
// The mode registers as core.FTModeFusee, so every harness (cmds,
// bench, chaos tests) drives it through core.OpenFT.
package fusee

import (
	"bytes"
	"errors"

	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
	"repro/internal/replica"
)

func init() { replica.Register(core.FTModeFusee, 8, newClient) }

// Config parameterises the baseline. SlotBytes is the index slot
// width: 8 (FUSEE) or 16 (the "+SLOT" factor-analysis configuration);
// CacheValues enables the FUSEE client cache (slot values only).
type Config = replica.Config

// DefaultConfig mirrors the paper's baseline setup, scaled down.
func DefaultConfig() Config {
	return Config{
		NumMNs:         5,
		Replicas:       3,
		SlotBytes:      8,
		PartitionBytes: 1 << 20,
		BlockSize:      2 << 20,
		BlocksPerMN:    48,
		CacheValues:    true,
	}
}

// NewCluster creates the baseline's memory nodes and servers.
func NewCluster(cfg Config, pl rdma.Platform) (*replica.Cluster, error) {
	return replica.NewCluster(core.FTModeFusee, cfg, pl, newClient)
}

// cacheEnt caches the slot values (KV replica addresses) of a key; the
// baseline cache holds values only — it must re-read a bucket to
// validate (§3.5.1 contrasts this with Aceso's slot-address cache).
type cacheEnt struct {
	slotIdx int // bucket-relative slot index
	bucket  uint64
	vals    []uint64 // per replica, packed slot words
	haveAll bool     // vals holds every replica (filled at own commit)
	len     int      // KV class size (bytes)
}

// Client is a FUSEE-style client.
type Client struct {
	replica.Client
	cache map[string]*cacheEnt
}

func newClient(base replica.Client) ftmode.Client {
	return &Client{Client: base, cache: make(map[string]*cacheEnt)}
}

// errStaleCache sends a cached read down the search path.
var errStaleCache = errors.New("fusee: stale cache")

// Search returns the value of key, or ErrNotFound. Reads go to the
// primary replica; the client cache stores slot values only, so a hit
// still re-reads the primary bucket to validate (unlike Aceso's
// slot-address cache).
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
		for bi, buf := range [][]byte{buf1, buf2} {
			bucket := b1
			if bi == 1 {
				bucket = b2
			}
			for _, s := range c.Scan(fp, buf) {
				w := c.Word(buf, s)
				kv, err := c.ReadKVFailover(p, bucket, s, w, c.guessSize(key))
				if err != nil || kv == nil || !bytes.Equal(kv.Key, key) {
					continue
				}
				if ri == 0 {
					c.fillCache(key, bucket, s, w, layout.KVClassSize(len(kv.Key), len(kv.Val)))
				}
				if kv.Tombstone {
					return nil, replica.ErrNotFound
				}
				return append([]byte(nil), kv.Val...), nil
			}
		}
		return nil, replica.ErrNotFound
	}
	return nil, replica.ErrRetriesExhausted
}

// cachedRead validates a cache hit. FUSEE's cache stores slot values
// (KV addresses) only — not slot locations — so validating a cached
// read means re-reading both candidate buckets of the key alongside
// the speculative KV read (the "unnecessary index queries" Aceso's
// slot-address cache eliminates, §3.5.1).
func (c *Client) cachedRead(key []byte, ent *cacheEnt, p int) ([]byte, error) {
	kmn, kvAddr := c.KVAddr(replica.SlotAddr(ent.vals[0]))
	if c.Cl.Failed(c.Cl.Cfg.ReplicaMN(p, 0)) || c.Cl.Failed(kmn) {
		// The cache validates against the primary; after a failure the
		// caller takes the search path, which fails over.
		return nil, errStaleCache
	}
	b1, b2 := c.Buckets(racehash.Hash(key))
	_, a1 := c.SlotAt(p, 0, b1, 0)
	_, a2 := c.SlotAt(p, 0, b2, 0)
	bb := c.Cl.Cfg.BucketBytes()
	kvBuf := make([]byte, ent.len)
	bkt1 := make([]byte, bb)
	bkt2 := make([]byte, bb)
	ops := []rdma.Op{
		{Kind: rdma.OpRead, Addr: kvAddr, Buf: kvBuf},
		{Kind: rdma.OpRead, Addr: a1, Buf: bkt1},
		{Kind: rdma.OpRead, Addr: a2, Buf: bkt2},
	}
	c.Stats.ReadsIssued += 3
	c.Stats.BytesRead += uint64(ent.len) + 2*bb
	if err := c.Ctx.Batch(ops); err != nil {
		return nil, err
	}
	bktBuf := bkt1
	if ent.bucket == b2 {
		bktBuf = bkt2
	}
	cur := c.Word(bktBuf, ent.slotIdx)
	if cur != ent.vals[0] {
		// Slot changed: chase the new value once.
		if cur == 0 || replica.SlotFP(cur) != racehash.Fingerprint(racehash.Hash(key)) {
			return nil, errStaleCache
		}
		ent.vals[0] = cur
		ent.haveAll = false
		kv, err := c.ReadKVAt(replica.SlotAddr(cur), ent.len)
		if err != nil || kv == nil || !bytes.Equal(kv.Key, key) {
			return nil, errStaleCache
		}
		if kv.Tombstone {
			return nil, replica.ErrNotFound
		}
		return append([]byte(nil), kv.Val...), nil
	}
	kv, err := layout.DecodeKV(kvBuf)
	if err != nil || kv == nil || !bytes.Equal(kv.Key, key) {
		return nil, errStaleCache
	}
	if kv.Tombstone {
		return nil, replica.ErrNotFound
	}
	return append([]byte(nil), kv.Val...), nil
}

func (c *Client) fillCache(key []byte, bucket uint64, slot int, primaryWord uint64, size int) {
	if !c.Cl.Cfg.CacheValues {
		return
	}
	vals := make([]uint64, c.Cl.Cfg.Replicas)
	vals[0] = primaryWord
	c.cache[string(key)] = &cacheEnt{bucket: bucket, slotIdx: slot, vals: vals, len: size}
}

func (c *Client) guessSize(key []byte) int {
	if ent, ok := c.cache[string(key)]; ok && ent.len > 0 {
		return ent.len
	}
	return 1024 + 64 // workload default; oversized reads self-correct
}

// Insert stores a key-value pair (upsert).
func (c *Client) Insert(key, val []byte) error { return c.write(key, val, false) }

// Update overwrites a key's value (upsert).
func (c *Client) Update(key, val []byte) error { return c.write(key, val, false) }

// Delete removes a key by committing a replicated tombstone.
func (c *Client) Delete(key []byte) error { return c.write(key, nil, true) }

// write implements FUSEE's replicated write: write the KV to n MNs
// (one doorbell batch), CAS the n−1 backup index slots (one batch),
// then CAS the primary slot to commit — at least n CAS operations per
// write, the cost Figure 1(a) quantifies.
func (c *Client) write(key, val []byte, tombstone bool) error {
	c.Stats.Ops++
	cfg := &c.Cl.Cfg
	h := racehash.Hash(key)
	p := racehash.HomeMN(h, cfg.NumMNs)
	fp := racehash.Fingerprint(h)
	b1, b2 := c.Buckets(h)
	r := cfg.Replicas

	for attempt := 0; attempt < replica.MaxOpRetries; attempt++ {
		// The acting primary is the first surviving replica; after
		// failures the remaining replicas keep serializing writes.
		live := c.LiveReplicas(p)
		if len(live) == 0 {
			return replica.ErrAllReplicasFailed(p)
		}
		acting := live[0]

		// Locate the slot and its per-replica old words, via the cache
		// when it holds the full replica set (warm after this client's
		// own commit), else by reading buckets and replica slots.
		oldWords := make([]uint64, r)
		var bucket uint64
		var slotIdx int
		found := false
		if ent, ok := c.cache[string(key)]; ok && cfg.CacheValues && ent.haveAll && acting == 0 {
			copy(oldWords, ent.vals)
			bucket, slotIdx = ent.bucket, ent.slotIdx
			found = true
		} else {
			buf1, buf2, err := c.ReadBucketPair(p, acting, b1, b2)
			if err != nil {
				if errors.Is(err, rdma.ErrNodeFailed) {
					continue // fail over to the next surviving replica
				}
				return err
			}
		scan:
			for bi, buf := range [][]byte{buf1, buf2} {
				bkt := b1
				if bi == 1 {
					bkt = b2
				}
				for _, s := range c.Scan(fp, buf) {
					w := c.Word(buf, s)
					kv, err := c.ReadKVFailover(p, bkt, s, w, c.guessSize(key))
					if err != nil || kv == nil || !bytes.Equal(kv.Key, key) {
						continue
					}
					found = true
					oldWords[acting] = w
					bucket, slotIdx = bkt, s
					break scan
				}
			}
			if !found {
				if tombstone {
					return replica.ErrNotFound
				}
				if bucket, slotIdx, err = c.FreeSlot(h, buf1, buf2, b1, b2); err != nil {
					return err
				}
			}
			// Read the other surviving replicas' current words for the
			// slot.
			if err := c.ReadSlotWords(p, live[1:], bucket, slotIdx, oldWords); err != nil {
				if errors.Is(err, rdma.ErrNodeFailed) {
					c.RefreshView()
					continue
				}
				return err
			}
		}

		// Write the KV replicas (one batch, n writes).
		size := layout.KVClassSize(len(key), len(val))
		kvBuf := make([]byte, size)
		layout.EncodeKV(kvBuf, key, val, 1, 1, tombstone)
		addrs, ops, err := c.PlaceCopies(kvBuf, r)
		if err == nil {
			err = c.Ctx.Batch(ops)
		}
		if err != nil {
			if errors.Is(err, rdma.ErrNodeFailed) {
				// An open block's MN died mid-write: drop the class's
				// blocks and reallocate on survivors.
				c.DropBlocks(size)
				c.RefreshView()
				continue
			}
			return err
		}
		// CAS the backups, then the primary (commit).
		newWords := make([]uint64, r)
		for i := 0; i < r; i++ {
			newWords[i] = replica.PackSlot(fp, addrs[i])
		}
		// Backup CASes run as sequential rounds: FUSEE's conflict
		// resolution selects a winner from each round's results before
		// proceeding, so a backup CAS cannot be pipelined behind the
		// next (§2.4: "Based on the CAS results, one winner is
		// selected...").
		ok := true
		casFailover := false
		for _, i := range live[1:] {
			mn, addr := c.SlotAt(p, i, bucket, slotIdx)
			c.Stats.CASIssued++
			prev, err := c.Ctx.CAS(addr, oldWords[i], newWords[i])
			if err != nil {
				if c.NoteErr(mn, err) {
					casFailover = true
					break
				}
				return err
			}
			if prev != oldWords[i] {
				ok = false
				break
			}
		}
		if casFailover {
			continue
		}
		if ok {
			mn, addr := c.SlotAt(p, acting, bucket, slotIdx)
			c.Stats.CASIssued++
			prev, err := c.Ctx.CAS(addr, oldWords[acting], newWords[acting])
			if err != nil {
				if c.NoteErr(mn, err) {
					continue
				}
				return err
			}
			if prev == oldWords[acting] {
				if cfg.CacheValues && acting == 0 {
					c.cache[string(key)] = &cacheEnt{bucket: bucket, slotIdx: slotIdx,
						vals: newWords, haveAll: true, len: size}
				}
				if !found {
					c.Stats.ValidBytes += uint64(size)
				}
				return nil
			}
		}
		// Conflict: another client won on some replica. Re-read and
		// retry with bounded backoff (FUSEE's conflict-resolution
		// winner selection plays this arbitration role).
		c.Stats.CASRetries++
		delete(c.cache, string(key))
		c.Backoff(attempt)
	}
	return replica.ErrRetriesExhausted
}
