package obs

import "sync/atomic"

// WriteMetrics aggregates write-path activity across every client
// opened from one cluster handle, for live export (/metrics, admin
// Stats): fused single-RTT commits, two-phase fallbacks by reason,
// background block-prefetch effectiveness and skipped delta copies.
// Clients bump the counters with single atomic adds on their op paths;
// the per-client breakdown stays in core.ClientStats (plain fields,
// read by the owning goroutine). This aggregate exists so a metrics
// scrape never races a running client — the same split as
// CacheMetrics.
type WriteMetrics struct {
	Fused              atomic.Uint64 // commits fused into the placement batch (1 RTT)
	FallbackDisabled   atomic.Uint64 // Config.FusedCommit off
	FallbackCapability atomic.Uint64 // fabric lacks rdma.OrderedBatcher
	FallbackAddr       atomic.Uint64 // slot address unresolvable (MN down)
	PrefetchHits       atomic.Uint64 // block refills served by the prefetcher
	PrefetchMisses     atomic.Uint64 // refills that fell back to a synchronous alloc
	DeltaSkips         atomic.Uint64 // delta copies not written (dead target or lost write)

	// Inserts, force-relocked and rollover writes fuse like updates, so
	// these three always read 0. They (and their /metrics lines) stay
	// only because perfbench's window deltas read them.
	FallbackInsert   atomic.Uint64
	FallbackLocked   atomic.Uint64
	FallbackRollover atomic.Uint64
}

// WriteSnapshot is a point-in-time copy of WriteMetrics.
type WriteSnapshot struct {
	Fused                                uint64
	FallbackDisabled, FallbackCapability uint64
	FallbackInsert, FallbackLocked       uint64
	FallbackRollover, FallbackAddr       uint64
	PrefetchHits, PrefetchMisses         uint64
	DeltaSkips                           uint64
}

// Fallbacks returns the total two-phase commits across all reasons.
func (s WriteSnapshot) Fallbacks() uint64 {
	return s.FallbackDisabled + s.FallbackCapability + s.FallbackInsert +
		s.FallbackLocked + s.FallbackRollover + s.FallbackAddr
}

// Snapshot reads every counter once.
func (m *WriteMetrics) Snapshot() WriteSnapshot {
	if m == nil {
		return WriteSnapshot{}
	}
	return WriteSnapshot{
		Fused:              m.Fused.Load(),
		FallbackDisabled:   m.FallbackDisabled.Load(),
		FallbackCapability: m.FallbackCapability.Load(),
		FallbackInsert:     m.FallbackInsert.Load(),
		FallbackLocked:     m.FallbackLocked.Load(),
		FallbackRollover:   m.FallbackRollover.Load(),
		FallbackAddr:       m.FallbackAddr.Load(),
		PrefetchHits:       m.PrefetchHits.Load(),
		PrefetchMisses:     m.PrefetchMisses.Load(),
		DeltaSkips:         m.DeltaSkips.Load(),
	}
}
