// Package core implements Aceso itself: the memory-node server (space
// allocation, differential index checkpointing, offline erasure
// coding, delta-based space reclamation), the client (one-sided KV
// operations with slot versioning and the slot-address index cache),
// the master (lease-based membership and failure handling) and the
// tiered recovery machinery. It is the paper's contribution; everything
// it builds on lives in the substrate packages (rdma, sim, erasure,
// lz4, layout, racehash).
package core

import (
	"fmt"
	"time"

	"repro/internal/erasure"
	"repro/internal/layout"
)

// CPURates calibrates how much memory-node CPU time background kernels
// consume in the simulated cost model (bytes per second). The defaults
// follow Table 2's measured kernel throughputs and typical single-core
// memcpy/LZ4 rates.
type CPURates struct {
	Memcpy     float64 // checkpoint snapshot copy
	Xor        float64 // XOR-code encode/decode kernel
	RS         float64 // Reed-Solomon encode/decode kernel
	Compress   float64 // LZ4 compression of checkpoint deltas
	Decompress float64 // LZ4 decompression
}

// DefaultCPURates returns the calibrated kernel rates (DESIGN.md §5).
func DefaultCPURates() CPURates {
	return CPURates{
		Memcpy:     10e9,
		Xor:        20.6e9, // Table 2 "Test Tpt" XOR
		RS:         12.6e9, // Table 2 "Test Tpt" RS
		Compress:   2e9,
		Decompress: 6e9,
	}
}

// codeRate returns the erasure kernel rate for the configured code.
func (r CPURates) codeRate(code string) float64 {
	if code == "rs" {
		return r.RS
	}
	return r.Xor
}

// Config parameterises an Aceso coding group.
type Config struct {
	// Layout fixes the group geometry and per-MN memory layout.
	Layout layout.Config
	// FTMode selects the fault-tolerance mode: "aceso" (the default,
	// also chosen by ""), "fusee-replication" or "swarm-inplace". All
	// modes share this Config; replication modes derive their own
	// geometry from Layout (see their configFromCore).
	FTMode string
	// Replicas is the replication factor used by replication-based
	// modes (index replicas and KV copies alike); 0 means 3, the
	// paper's baseline. The aceso mode ignores it — its redundancy
	// comes from Layout.ParityShards.
	Replicas int
	// Code selects the erasure code: "xor" (default, the paper's
	// choice) or "rs" (the Table 2 comparator).
	Code string
	// CkptInterval is the index checkpointing period (paper default
	// 500 ms).
	CkptInterval time.Duration
	// CacheSlotAddr enables caching index-slot addresses alongside
	// values in the client cache (§3.5.1); disabling it reproduces the
	// "+CKPT" configuration of the factor analysis (Figure 13).
	CacheSlotAddr bool
	// CacheEntries bounds the client index cache: each client keeps at
	// most this many entries (positive slot-address entries and
	// negative "key absent" entries alike) in a sharded CLOCK cache.
	// 0 means the 16384-entry default; <0 disables the cache entirely
	// (the bench "cache off" configuration).
	CacheEntries int
	// CacheNegative enables negative caching: a SEARCH miss records
	// "absent as of bucket versions (v1,v2)" and later misses of the
	// same key revalidate with two 8-byte version-word reads instead
	// of two 128-byte bucket reads. Off by default — the paper's verb
	// cost model (§4.2, Figure 1(a)) has no version reads on the miss
	// path, and the verbs experiment pins that model; read-heavy
	// deployments turn it on (see DESIGN.md §12).
	CacheNegative bool
	// CacheValues extends positive cache entries with a copy of the
	// committed value, served under a single 8-byte slot-word
	// validation read: every mutation of a pair — update, delete,
	// reclamation move — CASes its slot Atomic word, so an unchanged
	// word proves the cached bytes are the committed pair. Hits cost 1
	// verb / 1 RTT instead of the §3.5.1 {KV, slot} pair. Off by
	// default for the same reason as CacheNegative: the verbs
	// experiment pins the paper's two-read hit cost.
	CacheValues bool
	// FusedCommit fuses the commit CAS into the placement doorbell
	// batch on fabrics that honour the rdma.OrderedBatcher contract:
	// every write that holds a slot — an UPDATE/DELETE of a located
	// slot, an INSERT into a free slot (expected word 0), a rollover or
	// force-relocked write under the Meta lock — issues {KV write,
	// delta writes, slot CAS} as one ordered batch instead of a batch
	// followed by a dependent CAS. Fabrics without the capability fall
	// back automatically (DESIGN.md §13). On by default; the verbs
	// experiment disables it to pin the paper's two-RTT write cost
	// model.
	FusedCommit bool
	// BlockPrefetch moves DATA/DELTA block provisioning off the write
	// hot path: a per-client background worker pre-runs
	// AllocBlock/AllocDelta when an open block drops below its
	// low-water mark and absorbs block seals and free-bitmap flushes,
	// so no UPDATE stalls on an RPC. On by default.
	BlockPrefetch bool
	// OffloadBuckets bounds the client's hot-bucket mirror: access
	// counters promote up to this many index buckets into CN-resident
	// copies revalidated by one 8-byte bucket-version read, making hot
	// GETs ~1 RTT (Outback-style). 0 disables offloading.
	OffloadBuckets int
	// ReclaimObsolete is the obsolete-KV fraction above which a DATA
	// block becomes a reclamation candidate (paper default 0.75).
	ReclaimObsolete float64
	// ReclaimFree is the free-space fraction below which reclamation
	// kicks in (paper default 0.25).
	ReclaimFree float64
	// BitmapFlushOps is how many obsolete-markings a client batches
	// before flushing free-bitmap updates to the servers.
	BitmapFlushOps int
	// EncodePoll is the MN encoder/applier daemon poll period.
	EncodePoll time.Duration
	// LockRetry and LockTimeout govern Meta-lock contention handling
	// (§3.2.2 remarks: retry, then force-relock after a timeout).
	LockRetry   time.Duration
	LockTimeout time.Duration
	// MetaSyncInterval is the period of the asynchronous Meta Area
	// replication daemon.
	MetaSyncInterval time.Duration
	// ChunkBytes is the transfer granularity for bulk RDMA writes
	// (checkpoint deltas, recovery reads), so they interleave with
	// foreground traffic instead of head-of-line blocking the NIC.
	ChunkBytes int
	// RecoveryPipeline enables the two-stage recovery pipeline
	// (§3.4.1 remark 1: overlap stripe fetches with decoding).
	// Disabling it is an ablation knob.
	RecoveryPipeline bool
	// CkptRaw disables differential checkpointing: every round ships
	// the full, uncompressed index snapshot (the strawman of Figure
	// 1(b)). Ablation knob; recovery still works because the hosted
	// copy is overwritten wholesale.
	CkptRaw bool
	// RecoveryHelpers distributes tier-3 block decoding across this
	// many helper compute nodes (the paper's future-work extension,
	// modelled on RAMCloud's distributed recovery): each helper
	// fetches stripe survivors, decodes on its own CPU and writes the
	// rebuilt block to the replacement MN. 0 keeps all decoding on the
	// replacement node.
	RecoveryHelpers int
	// CkptWorkers sizes the checkpoint compression worker pool: that
	// many extra MN cores XOR+compress dirty segments concurrently
	// each round. 0 keeps all segment processing inline on the
	// checkpoint-send core (the pre-segmentation behaviour).
	CkptWorkers int
	// ECWorkers sizes the erasure worker pool: that many extra MN
	// cores run banded encode/reconstruct kernels concurrently, so
	// delta reclamation and recovery decode overlap across cores. 0
	// keeps all erasure compute inline on the erasure core (the
	// pre-parallel behaviour).
	ECWorkers int
	// TraceSample is the op-span sampling rate: one in TraceSample
	// client ops records a full span tree (rounded to a power of two;
	// default 64). <0 disables op tracing entirely.
	TraceSample int
	// TraceSpans bounds the span ring: the newest TraceSpans spans are
	// retained (rounded to a power of two; default 4096).
	TraceSpans int
	// DeltaCopies is how many of the stripe's parity MNs receive each
	// KV's delta write. 0 (the default) means all ParityShards, which
	// keeps unsealed data recoverable at the full two-failure bound;
	// 1 reproduces the paper's single-DELTA-block prose (an ablation
	// that trades one write per KV against protection of unsealed
	// blocks).
	DeltaCopies int
	// Rates calibrates simulated CPU kernel costs.
	Rates CPURates
}

// DefaultConfig returns a scaled-down version of the paper's setup
// (§4.1): a 5-MN coding group (3 data + 2 parity per stripe), 500 ms
// checkpoint interval, XOR code, 2 MB blocks.
func DefaultConfig() Config {
	return Config{
		Layout: layout.Config{
			NumMNs:       5,
			ParityShards: 2,
			IndexBytes:   1 << 21, // 2 MB index per MN (scaled from 256 MB)
			BlockSize:    2 << 20, // 2 MB blocks (paper default)
			StripeRows:   24,
			PoolBlocks:   16,
			CkptHosts:    1,
			MetaReplicas: 2,
			CkptSegments: 64,
		},
		Code:             "xor",
		CkptInterval:     500 * time.Millisecond,
		CacheSlotAddr:    true,
		FusedCommit:      true,
		BlockPrefetch:    true,
		ReclaimObsolete:  0.75,
		ReclaimFree:      0.25,
		BitmapFlushOps:   64,
		EncodePoll:       50 * time.Microsecond,
		LockRetry:        5 * time.Microsecond,
		LockTimeout:      500 * time.Microsecond,
		MetaSyncInterval: 200 * time.Microsecond,
		ChunkBytes:       64 << 10,
		RecoveryPipeline: true,
		CkptWorkers:      2,
		ECWorkers:        2,
		Rates:            DefaultCPURates(),
	}
}

// FTModeName resolves the effective fault-tolerance mode name ("" =
// FTModeAceso).
func (c *Config) FTModeName() string {
	if c.FTMode == "" {
		return FTModeAceso
	}
	return c.FTMode
}

// ReplicaCount resolves the effective replication factor for
// replication-based modes (0 = 3, the paper's baseline).
func (c *Config) ReplicaCount() int {
	if c.Replicas <= 0 {
		return 3
	}
	return c.Replicas
}

// newCode instantiates the configured erasure code for k data shards.
func (c *Config) newCode() (erasure.Code, error) {
	k := c.Layout.K()
	switch c.Code {
	case "", "xor":
		return erasure.NewXor(k)
	case "rs":
		return erasure.NewRS(k, c.Layout.ParityShards)
	default:
		return nil, fmt.Errorf("core: unknown erasure code %q", c.Code)
	}
}

// cacheEntries resolves the effective client cache bound: the default
// when unset, 0 when disabled.
func (c *Config) cacheEntries() int {
	if c.CacheEntries < 0 {
		return 0
	}
	if c.CacheEntries == 0 {
		return 16384
	}
	return c.CacheEntries
}

// offloadBuckets resolves the effective hot-bucket mirror bound.
func (c *Config) offloadBuckets() int {
	if c.OffloadBuckets <= 0 {
		return 0
	}
	return c.OffloadBuckets
}

// ckptWorkers resolves the effective checkpoint worker-pool size.
func (c *Config) ckptWorkers() int {
	if c.CkptWorkers <= 0 {
		return 0
	}
	return c.CkptWorkers
}

// ecWorkers resolves the effective erasure worker-pool size.
func (c *Config) ecWorkers() int {
	if c.ECWorkers <= 0 {
		return 0
	}
	return c.ECWorkers
}

// traceSample resolves the effective 1-in-N op sampling rate (0 =
// tracing disabled).
func (c *Config) traceSample() int {
	if c.TraceSample < 0 {
		return 0
	}
	if c.TraceSample == 0 {
		return 64
	}
	return c.TraceSample
}

// traceSpans resolves the span-ring capacity.
func (c *Config) traceSpans() int {
	if c.TraceSpans <= 0 {
		return 4096
	}
	return c.TraceSpans
}

// deltaCopies resolves the effective per-KV delta fan-out.
func (c *Config) deltaCopies() int {
	if c.DeltaCopies <= 0 || c.DeltaCopies > c.Layout.ParityShards {
		return c.Layout.ParityShards
	}
	return c.DeltaCopies
}

// cpuTime converts a byte count processed at rate bytes/sec into CPU
// time.
func cpuTime(bytes int, rate float64) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / rate * 1e9)
}
