package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
)

// Stats are a client's verb and byte counters.
type Stats struct {
	Ops          uint64
	CASIssued    uint64
	CASRetries   uint64
	ReadsIssued  uint64
	WritesIssued uint64
	BytesRead    uint64
	BytesWritten uint64
	ValidBytes   uint64 // net new valid payload written (first copy)
}

type openBlock struct {
	mn   int
	idx  int
	next int
}

// Client is the client base a mode embeds: identity, counters, the
// failure view and every verb sequence both modes issue the same way.
type Client struct {
	Cl  *Cluster
	Ctx rdma.Ctx // the process context, set by Attach
	// ID is the client's identity; it salts Backoff and picks the
	// MNs its blocks start on.
	ID    uint16
	Stats Stats

	open map[uint8][]*openBlock // per size class: open blocks on distinct MNs
}

// Attach binds the client to its process context.
func (c *Client) Attach(ctx rdma.Ctx) { c.Ctx = ctx }

// Counters returns the client's verb counts (CAS, reads, writes) for
// harness accounting such as Figure 1(a)'s CAS-per-request rows.
func (c *Client) Counters() (cas, reads, writes uint64) {
	return c.Stats.CASIssued, c.Stats.ReadsIssued, c.Stats.WritesIssued
}

// Close is a no-op: the replication clients batch no state that must
// be flushed (interface parity with core's Client).
func (c *Client) Close() {}

// KillMN asks MN mn to fail-stop itself over the admin RPC (the
// wall-clock fabric's fault-injection surface; simulated harnesses
// call Cluster.FailMN directly).
func (c *Client) KillMN(mn int) error {
	if c.Cl.Failed(mn) {
		return rdma.ErrNodeFailed
	}
	resp, err := c.Ctx.RPC(c.Cl.nodes[mn], methodKill, nil)
	if err != nil {
		return err
	}
	if len(resp) < 1 || resp[0] != 0 {
		return fmt.Errorf("%s: kill rejected", c.Cl.name)
	}
	return nil
}

// NoteErr records a node failure observed through err and reports
// whether the caller should fail over (retry on a surviving replica).
func (c *Client) NoteErr(mn int, err error) bool {
	if errors.Is(err, rdma.ErrNodeFailed) {
		c.Cl.markFailed(mn)
		return true
	}
	return false
}

// LiveReplicas returns the surviving replica indices of partition p in
// replica order (acting primary first).
func (c *Client) LiveReplicas(p int) []int {
	cfg := &c.Cl.Cfg
	out := make([]int, 0, cfg.Replicas)
	for i := 0; i < cfg.Replicas; i++ {
		if !c.Cl.Failed(cfg.ReplicaMN(p, i)) {
			out = append(out, i)
		}
	}
	return out
}

// RefreshView probes every not-yet-failed MN with a minimal read and
// marks the dead ones. Used after an ambiguous batched-verb failure
// (the batch error does not say which node died).
func (c *Client) RefreshView() {
	var b [8]byte
	for mn := 0; mn < c.Cl.Cfg.NumMNs; mn++ {
		if c.Cl.Failed(mn) {
			continue
		}
		c.Stats.ReadsIssued++
		c.Stats.BytesRead += 8
		if err := c.Ctx.Read(b[:], rdma.GlobalAddr{Node: c.Cl.nodes[mn]}); err != nil {
			c.NoteErr(mn, err)
		}
	}
}

// Backoff sleeps a bounded, client-salted exponential delay so losers
// of a conflict do not starve under a thundering herd on a hot key.
func (c *Client) Backoff(attempt int) {
	shift := attempt
	if shift > 6 {
		shift = 6
	}
	c.Ctx.Sleep(time.Duration(1+int(c.ID)%4) * time.Microsecond << shift)
}

// PackSlot packs a slot word: fingerprint in the top byte, 48-bit
// address below (the 8-byte atomic word both modes CAS).
func PackSlot(fp uint8, addr uint64) uint64 {
	return uint64(fp)<<56 | addr&((1<<48)-1)
}

// SlotFP returns a slot word's fingerprint.
func SlotFP(w uint64) uint8 { return uint8(w >> 56) }

// SlotAddr returns a slot word's packed KV address.
func SlotAddr(w uint64) uint64 { return w & ((1 << 48) - 1) }

// SlotAt returns the MN hosting replica ri of partition p and the
// address of slot s of bucket there.
func (c *Client) SlotAt(p, ri int, bucket uint64, s int) (int, rdma.GlobalAddr) {
	cfg := &c.Cl.Cfg
	mn := cfg.ReplicaMN(p, ri)
	return mn, rdma.GlobalAddr{Node: c.Cl.nodes[mn], Off: c.slotOff(cfg.hostedRegion(mn, p), bucket, s)}
}

// KVAddr resolves a packed KV address to its MN and fabric address.
func (c *Client) KVAddr(packed uint64) (int, rdma.GlobalAddr) {
	mn, off := layout.UnpackAddr(packed)
	return int(mn), rdma.GlobalAddr{Node: c.Cl.nodes[mn], Off: off}
}

// slotOff returns the offset of slot s of bucket b within a hosted
// partition region.
func (c *Client) slotOff(region int, bucket uint64, s int) uint64 {
	cfg := &c.Cl.Cfg
	return cfg.regionOff(region) + bucket*cfg.BucketBytes() + uint64(s*cfg.SlotBytes)
}

// Buckets returns the key's two candidate buckets.
func (c *Client) Buckets(h uint64) (uint64, uint64) {
	return racehash.BucketPair(h, c.Cl.Cfg.numBuckets())
}

// ReadBucketPair reads the key's two buckets from one replica of its
// partition with one doorbell batch, marking the MN failed when the
// read finds it dead.
func (c *Client) ReadBucketPair(p, replica int, b1, b2 uint64) ([]byte, []byte, error) {
	bb := c.Cl.Cfg.BucketBytes()
	buf1 := make([]byte, bb)
	buf2 := make([]byte, bb)
	mn, a1 := c.SlotAt(p, replica, b1, 0)
	_, a2 := c.SlotAt(p, replica, b2, 0)
	ops := []rdma.Op{
		{Kind: rdma.OpRead, Addr: a1, Buf: buf1},
		{Kind: rdma.OpRead, Addr: a2, Buf: buf2},
	}
	c.Stats.ReadsIssued += 2
	c.Stats.BytesRead += 2 * bb
	if err := c.Ctx.Batch(ops); err != nil {
		c.NoteErr(mn, err)
		return nil, nil, err
	}
	return buf1, buf2, nil
}

// Word returns word0 (fingerprint|address) of slot s in a raw bucket.
func (c *Client) Word(buf []byte, s int) uint64 {
	return binary.LittleEndian.Uint64(buf[s*c.Cl.Cfg.SlotBytes:])
}

// Scan finds the slots of a raw bucket whose word0 carries fp.
func (c *Client) Scan(fp uint8, buf []byte) []int {
	var out []int
	for s := 0; s < layout.BucketSlots; s++ {
		if w := c.Word(buf, s); w != 0 && SlotFP(w) == fp {
			out = append(out, s)
		}
	}
	return out
}

// freeSlot finds the first empty slot in a raw bucket, or -1.
func (c *Client) freeSlot(buf []byte) int {
	for s := 0; s < layout.BucketSlots; s++ {
		if c.Word(buf, s) == 0 {
			return s
		}
	}
	return -1
}

// FreeSlot picks an empty slot for a new key from its bucket pair. A
// deterministic per-key bucket preference balances the pair while
// keeping racing inserters of one key on the same slot.
func (c *Client) FreeSlot(h uint64, buf1, buf2 []byte, b1, b2 uint64) (uint64, int, error) {
	if h>>32&1 == 1 {
		buf1, buf2, b1, b2 = buf2, buf1, b2, b1
	}
	if s := c.freeSlot(buf1); s >= 0 {
		return b1, s, nil
	}
	if s := c.freeSlot(buf2); s >= 0 {
		return b2, s, nil
	}
	return 0, 0, fmt.Errorf("%s: buckets %d and %d full", c.Cl.name, b1, b2)
}

// ReadSlotWords reads word0 of slot (bucket, s) on each replica in ris
// with one doorbell batch, storing replica ri's word in words[ri].
func (c *Client) ReadSlotWords(p int, ris []int, bucket uint64, s int, words []uint64) error {
	if len(ris) == 0 {
		return nil
	}
	ops := make([]rdma.Op, len(ris))
	for i, ri := range ris {
		_, addr := c.SlotAt(p, ri, bucket, s)
		ops[i] = rdma.Op{Kind: rdma.OpRead, Addr: addr, Buf: make([]byte, 8)}
	}
	c.Stats.ReadsIssued += uint64(len(ops))
	c.Stats.BytesRead += uint64(len(ops) * 8)
	if err := c.Ctx.Batch(ops); err != nil {
		return err
	}
	for i, ri := range ris {
		words[ri] = binary.LittleEndian.Uint64(ops[i].Buf)
	}
	return nil
}

// ReadKVAt reads and decodes a KV copy. The speculative size is
// clamped to the block boundary (KV pairs never span blocks); when the
// clamped read turns out shorter than the pair, the true size is taken
// from the header and the pair re-read.
func (c *Client) ReadKVAt(packed uint64, size int) (*layout.KV, error) {
	cfg := &c.Cl.Cfg
	mn, addr := c.KVAddr(packed)
	if base := cfg.blockOff(0); addr.Off >= base {
		rel := (addr.Off - base) % cfg.BlockSize
		if remain := int(cfg.BlockSize - rel); size > remain {
			size = remain
		}
	}
	if size < 64 {
		size = 64
	}
	buf := make([]byte, size)
	c.Stats.ReadsIssued++
	c.Stats.BytesRead += uint64(size)
	if err := c.Ctx.Read(buf, addr); err != nil {
		c.NoteErr(mn, err)
		return nil, err
	}
	if buf[0] == 0 {
		return nil, nil // never written
	}
	// The pair's true size comes from the header; the speculative read
	// may be longer (decode the class-size prefix) or shorter (re-read
	// at the true size).
	keyLen := int(binary.LittleEndian.Uint16(buf[2:]))
	valLen := int(binary.LittleEndian.Uint32(buf[4:]))
	real := layout.KVClassSize(keyLen, valLen)
	if real > int(cfg.BlockSize) {
		return nil, layout.ErrTornKV
	}
	if real <= size {
		return layout.DecodeKV(buf[:real])
	}
	buf = make([]byte, real)
	c.Stats.ReadsIssued++
	c.Stats.BytesRead += uint64(real)
	if err := c.Ctx.Read(buf, addr); err != nil {
		c.NoteErr(mn, err)
		return nil, err
	}
	return layout.DecodeKV(buf)
}

// ReadKVFailover reads the KV slot word w points at; when that copy's
// MN has failed it chases the surviving replicas' slot words for the
// same (bucket, slot) position and reads their copies instead. This is
// the replication modes' whole recovery story: any surviving copy
// serves the data, no rebuild.
func (c *Client) ReadKVFailover(p int, bucket uint64, s int, w uint64, size int) (*layout.KV, error) {
	kv, err := c.ReadKVAt(SlotAddr(w), size)
	if err == nil || !errors.Is(err, rdma.ErrNodeFailed) {
		return kv, err
	}
	for _, ri := range c.LiveReplicas(p) {
		mn, addr := c.SlotAt(p, ri, bucket, s)
		var wb [8]byte
		c.Stats.ReadsIssued++
		c.Stats.BytesRead += 8
		if rerr := c.Ctx.Read(wb[:], addr); rerr != nil {
			c.NoteErr(mn, rerr)
			continue
		}
		rw := binary.LittleEndian.Uint64(wb[:])
		if rw == 0 || SlotFP(rw) != SlotFP(w) {
			continue
		}
		kv, err = c.ReadKVAt(SlotAddr(rw), size)
		if err == nil {
			return kv, nil
		}
	}
	return nil, err
}

// PlaceCopies prepares n writes of the encoded pair kv into the
// client's open blocks for its size class, one per distinct live MN,
// and returns the packed copy addresses with the write ops (the caller
// issues them, alone or batched with its slot-word writes).
func (c *Client) PlaceCopies(kv []byte, n int) ([]uint64, []rdma.Op, error) {
	cfg := &c.Cl.Cfg
	size := len(kv)
	classUnits := uint8(size / 64)
	obs, err := c.getBlocks(classUnits, n)
	if err != nil {
		return nil, nil, err
	}
	addrs := make([]uint64, n)
	ops := make([]rdma.Op, n)
	for i := 0; i < n; i++ {
		ob := obs[i]
		off := cfg.blockOff(ob.idx) + uint64(ob.next*size)
		ob.next++
		addrs[i] = layout.PackAddr(uint16(ob.mn), off)
		ops[i] = rdma.Op{Kind: rdma.OpWrite, Addr: rdma.GlobalAddr{Node: c.Cl.nodes[ob.mn], Off: off}, Buf: kv}
	}
	c.Stats.WritesIssued += uint64(n)
	c.Stats.BytesWritten += uint64(n * size)
	// Retire the class's blocks once any of them is full.
	for _, ob := range obs {
		if (ob.next+1)*size > int(cfg.BlockSize) {
			c.DropBlocks(size)
			break
		}
	}
	return addrs, ops, nil
}

// DropBlocks forgets the open blocks of a size class (full, or an MN
// died under a copy write), so the next placement allocates afresh.
func (c *Client) DropBlocks(size int) { delete(c.open, uint8(size/64)) }

// getBlocks returns (allocating if needed) at least n open blocks for
// a size class on distinct live MNs (relaxing distinctness when
// failures leave fewer live MNs than copies).
func (c *Client) getBlocks(classUnits uint8, n int) ([]*openBlock, error) {
	if obs, ok := c.open[classUnits]; ok && len(obs) >= n {
		return obs, nil
	}
	cfg := &c.Cl.Cfg
	base := int(c.ID)
	obs := make([]*openBlock, 0, n)
	used := map[int]bool{}
	for i := 0; i < n; i++ {
		allocated := false
		// The first pass wants copies on distinct MNs; when failures
		// leave fewer live MNs than copies, the relaxed pass reuses
		// live MNs (distinct blocks) rather than refusing writes.
		for _, distinct := range []bool{true, false} {
			for try := 0; try < cfg.NumMNs && !allocated; try++ {
				mn := (base + i + try) % cfg.NumMNs
				if (distinct && used[mn]) || c.Cl.Failed(mn) {
					continue
				}
				resp, err := c.Ctx.RPC(c.Cl.nodes[mn], methodAlloc, nil)
				if err != nil {
					c.NoteErr(mn, err)
					continue
				}
				if len(resp) == 0 || resp[0] != 0 {
					continue
				}
				idx := int(binary.LittleEndian.Uint32(resp[1:]))
				obs = append(obs, &openBlock{mn: mn, idx: idx})
				used[mn] = true
				allocated = true
			}
			if allocated {
				break
			}
		}
		if !allocated {
			return nil, ErrNoSpace
		}
	}
	c.open[classUnits] = obs
	return obs, nil
}
