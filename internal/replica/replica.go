// Package replica is the replicated-index substrate shared by the two
// replication modes, FUSEE (`fusee-replication`, internal/fusee) and
// SWARM (`swarm-inplace`, internal/swarm). It owns everything the two
// have in common:
//
//   - the geometry: each MN hosts Replicas index partitions (its own
//     primary plus backups of its predecessors) followed by a KV block
//     area;
//   - the cluster: memory nodes, the block-allocation and admin-kill
//     RPCs, the client-observed failure view, and the ftmode.Cluster
//     surface;
//   - the client base (Client): verb counters, view refresh and
//     failover, bucket reads and scans, KV reads with replica failover,
//     and copy placement into per-client open blocks.
//
// A mode embeds Client in its own client type and supplies the read
// cache and the write-commit protocol: FUSEE re-places the pair and
// CASes every index replica, SWARM CASes one version word and
// overwrites copies in place.
package replica

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/layout"
	"repro/internal/rdma"
)

// Errors. Each wraps the corresponding core error so callers match on
// one taxonomy regardless of the fault-tolerance mode
// (errors.Is(err, core.ErrNotFound) holds for replica.ErrNotFound).
var (
	ErrNotFound         = fmt.Errorf("replica: %w", core.ErrNotFound)
	ErrNoSpace          = fmt.Errorf("replica: %w", core.ErrNoSpace)
	ErrRetriesExhausted = fmt.Errorf("replica: %w", core.ErrRetriesExhausted)
)

// ErrAllReplicasFailed reports every replica of partition p dead.
func ErrAllReplicasFailed(p int) error {
	return fmt.Errorf("replica: all replicas of partition %d failed: %w", p, rdma.ErrNodeFailed)
}

// MaxOpRetries bounds the attempts of one operation.
const MaxOpRetries = 1024

// Config is the geometry and client policy of a replication cluster.
type Config struct {
	// NumMNs is the memory-node count.
	NumMNs int
	// Replicas is the replication factor n (index replicas and KV
	// copies alike); the paper compares against 3.
	Replicas int
	// SlotBytes is the index slot width: 8 or 16.
	SlotBytes int
	// PartitionBytes is the per-partition index size (each MN hosts
	// Replicas partitions: its primary plus backups of predecessors).
	PartitionBytes uint64
	// BlockSize and BlocksPerMN size the KV block area.
	BlockSize   uint64
	BlocksPerMN int
	// CacheValues enables the mode's client cache.
	CacheValues bool
}

// BucketBytes is the size of a bucket of layout.BucketSlots slots. A
// bucket is read with one RDMA_READ, so wider slots mean more bytes
// per bucket read (the "+SLOT" read amplification).
func (c *Config) BucketBytes() uint64 { return uint64(layout.BucketSlots * c.SlotBytes) }

func (c *Config) numBuckets() uint64 { return c.PartitionBytes / c.BucketBytes() }

// regionOff returns the offset of hosted partition region j on an MN.
func (c *Config) regionOff(j int) uint64 { return uint64(j) * c.PartitionBytes }

// blockOff returns the offset of block b on an MN.
func (c *Config) blockOff(b int) uint64 {
	return uint64(c.Replicas)*c.PartitionBytes + uint64(b)*c.BlockSize
}

// memBytes is the registered region size per MN.
func (c *Config) memBytes() uint64 { return c.blockOff(c.BlocksPerMN) }

// ReplicaMN returns the MN hosting replica i of partition p.
func (c *Config) ReplicaMN(p, i int) int { return (p + i) % c.NumMNs }

// hostedRegion returns which region index of MN m holds partition p's
// replica, or -1.
func (c *Config) hostedRegion(m, p int) int {
	j := ((m-p)%c.NumMNs + c.NumMNs) % c.NumMNs
	if j < c.Replicas {
		return j
	}
	return -1
}

// ConfigFromCore derives a replication geometry from a shared core
// Config so every mode sees comparable index and block capacity: the
// index area is split into Replicas hosted partitions, and the block
// area matches Aceso's data+pool block count.
func ConfigFromCore(cfg core.Config, slotBytes int) Config {
	r := cfg.ReplicaCount()
	rc := Config{
		NumMNs:         cfg.Layout.NumMNs,
		Replicas:       r,
		SlotBytes:      slotBytes,
		PartitionBytes: cfg.Layout.IndexBytes / uint64(r),
		BlockSize:      cfg.Layout.BlockSize,
		BlocksPerMN:    cfg.Layout.BlocksPerMN(),
		CacheValues:    cfg.CacheSlotAddr,
	}
	// Partitions are laid out back to back at j*PartitionBytes, so the
	// split must stay bucket-aligned or every slot word in partitions
	// j>0 lands on an unaligned address and CAS refuses it (the default
	// 2 MB index / 3 replicas is not).
	rc.PartitionBytes -= rc.PartitionBytes % rc.BucketBytes()
	if rc.PartitionBytes == 0 {
		rc.PartitionBytes = 1 << 20
	}
	return rc
}

// Register adds a replication mode to core's registry: opening it
// builds a Cluster with slotBytes-wide slots whose clients come from
// newClient.
func Register(name string, slotBytes int, newClient func(Client) ftmode.Client) {
	core.RegisterFTMode(name, func(cfg core.Config, pl rdma.Platform) (ftmode.Cluster, error) {
		cl, err := NewCluster(name, ConfigFromCore(cfg, slotBytes), pl, newClient)
		if err != nil {
			return nil, err
		}
		return cl, nil
	})
}

// Cluster wires a replication mode onto a platform. It implements
// ftmode.Cluster directly.
type Cluster struct {
	Cfg       Config
	name      string
	pl        rdma.Platform
	nodes     []rdma.NodeID
	newClient func(Client) ftmode.Client

	mu      sync.Mutex
	nextBlk []int // bump allocator per MN
	nextCli uint16

	// viewMu guards the failure view. There is no master: clients
	// mark MNs failed when a verb returns rdma.ErrNodeFailed (or a
	// harness calls FailMN directly) and fail over to surviving
	// replicas.
	viewMu sync.Mutex
	failed []bool
}

// NewCluster creates the mode's memory nodes and installs their RPC
// handlers (block allocation, admin kill). newClient wraps each new
// client base in the mode's client type.
func NewCluster(name string, cfg Config, pl rdma.Platform, newClient func(Client) ftmode.Client) (*Cluster, error) {
	if cfg.Replicas < 1 || cfg.Replicas > cfg.NumMNs {
		return nil, fmt.Errorf("%s: replicas %d out of range", name, cfg.Replicas)
	}
	if cfg.SlotBytes != 8 && cfg.SlotBytes != 16 {
		return nil, fmt.Errorf("%s: slot bytes must be 8 or 16", name)
	}
	cl := &Cluster{Cfg: cfg, name: name, pl: pl, newClient: newClient, failed: make([]bool, cfg.NumMNs)}
	for i := 0; i < cfg.NumMNs; i++ {
		node := pl.AddMemNode(rdma.MemNodeConfig{MemBytes: cfg.memBytes(), CPUCores: 1})
		cl.nodes = append(cl.nodes, node)
		cl.nextBlk = append(cl.nextBlk, 0)
		mn := i
		pl.SetHandler(node, func(method uint8, req []byte) ([]byte, time.Duration) {
			return cl.handle(mn, method)
		})
	}
	return cl, nil
}

const (
	methodAlloc uint8 = 1
	// methodKill is the admin fail-stop verb (wall-clock fabric only;
	// simulated harnesses call FailMN directly, as in core).
	methodKill uint8 = 2
)

// handle serves block allocation and the admin kill used by the CLI
// and the TCP load harness.
func (cl *Cluster) handle(mn int, method uint8) ([]byte, time.Duration) {
	if method == methodKill {
		// Acknowledge before crashing, as core's admin fail does: the
		// handler runs inside a transport goroutine the fail joins.
		go func() {
			time.Sleep(10 * time.Millisecond)
			cl.FailMN(mn)
		}()
		return []byte{0}, time.Microsecond
	}
	if method != methodAlloc {
		return []byte{1}, time.Microsecond
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.nextBlk[mn] >= cl.Cfg.BlocksPerMN {
		return []byte{1}, 2 * time.Microsecond
	}
	b := cl.nextBlk[mn]
	cl.nextBlk[mn]++
	var resp [5]byte
	binary.LittleEndian.PutUint32(resp[1:], uint32(b))
	return resp[:], 2 * time.Microsecond
}

// AllocatedBytes returns the total block bytes allocated across MNs
// (memory-distribution accounting, Figure 12).
func (cl *Cluster) AllocatedBytes() uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	total := uint64(0)
	for _, n := range cl.nextBlk {
		total += uint64(n) * cl.Cfg.BlockSize
	}
	return total
}

// FailMN fail-stops logical MN mn: the view marks it dead and the
// platform drops its memory, so clients fail over to surviving
// replicas (there is no rebuild — replication keeps the data live).
func (cl *Cluster) FailMN(mn int) {
	cl.markFailed(mn)
	cl.pl.Fail(cl.nodes[mn])
}

// markFailed records a failure observed by a client (verb returned
// rdma.ErrNodeFailed) without touching the platform.
func (cl *Cluster) markFailed(mn int) {
	cl.viewMu.Lock()
	cl.failed[mn] = true
	cl.viewMu.Unlock()
}

// Failed reports whether MN mn is marked failed.
func (cl *Cluster) Failed(mn int) bool {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	return cl.failed[mn]
}

// MNState reports (failed, indexReady, blocksReady). There is no
// tiered rebuild: a healthy MN is fully ready, a failed one never
// recovers (its replicas carry the data).
func (cl *Cluster) MNState(mn int) (failed, indexReady, blocksReady bool) {
	f := cl.Failed(mn)
	return f, !f, !f
}

// NewClient allocates a client identity and wraps it in the mode's
// client type.
func (cl *Cluster) NewClient() ftmode.Client {
	cl.mu.Lock()
	cl.nextCli++
	id := cl.nextCli
	cl.mu.Unlock()
	return cl.newClient(Client{Cl: cl, ID: id, open: make(map[uint8][]*openBlock)})
}

// SpawnClient spawns fn as a client process on compute node cn.
func (cl *Cluster) SpawnClient(cn rdma.NodeID, name string, fn func(ftmode.Client)) {
	cli := cl.NewClient()
	cl.pl.Spawn(cn, name, func(ctx rdma.Ctx) {
		cli.Attach(ctx)
		fn(cli)
	})
}

// Mode returns the registered mode name.
func (cl *Cluster) Mode() string { return cl.name }

// Caps reports replica read failover and the admin kill verb.
func (cl *Cluster) Caps() ftmode.Caps {
	return ftmode.Caps{ReadFailover: true, AdminRPC: true}
}

// Start is a no-op: the alloc/kill handlers are installed at open and
// the replication modes run no server daemons.
func (cl *Cluster) Start() error { return nil }

// Ready is always true: there is nothing to rebuild.
func (cl *Cluster) Ready() bool { return true }

// Usage reports the allocated block footprint.
func (cl *Cluster) Usage() ftmode.Usage {
	return ftmode.Usage{TotalBytes: cl.AllocatedBytes()}
}

// NumMNs returns the memory-node count.
func (cl *Cluster) NumMNs() int { return cl.Cfg.NumMNs }
