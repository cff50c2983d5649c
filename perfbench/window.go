package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	aceso "repro"
	"repro/internal/obs"
)

// snapshot is every counter the benchmark reads, taken at one instant.
// Cluster-cumulative counters are reported as the difference of two
// snapshots, so every ratio covers the same ops.
type snapshot struct {
	at        time.Duration // cluster clock
	wall      time.Time
	cli       aceso.ClientStats // summed over the bench clients
	cache     obs.CacheSnapshot
	write     obs.WriteSnapshot
	mn        []aceso.ServerStats
	transport aceso.TransportStats
	reclaimed int
	cpu       time.Duration // process user+system CPU
	allocs    uint64
	gcs       uint64
	fab       [numScopes]obs.FabricSnapshot // traced runs only
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set in bytes.
func peakRSS() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) << 10 // Linux reports KiB
}

// takeSnapshot reads every counter. Client stats are plain fields owned
// by the client processes: call it from the only client's own goroutine
// (tcpnet) or with the simulation engine paused (simnet).
func takeSnapshot(h cluster, runners []*runner, rec *recorder) snapshot {
	s := snapshot{at: h.Now(), wall: time.Now()}
	for _, r := range runners {
		if r.c == nil {
			continue
		}
		src := clientCounters(&r.c.Stats)
		for i, p := range clientCounters(&s.cli) {
			*p += *src[i]
		}
	}
	cl, _ := h.Internal()
	s.cache = cl.CacheMetrics().Snapshot()
	s.write = cl.WriteMetrics().Snapshot()
	for mn := 0; mn < h.NumMNs(); mn++ {
		s.mn = append(s.mn, h.MNStats(mn))
	}
	s.transport = h.TransportStats()
	s.reclaimed = h.Reclaimed()
	s.cpu = processCPU()
	metrics.Read(procSamples)
	s.allocs = procSamples[0].Value.Uint64()
	s.gcs = procSamples[1].Value.Uint64()
	if rec != nil {
		for i, m := range rec.fab {
			s.fab[i] = m.Snapshot()
		}
	}
	return s
}

// clientCounters lists the ClientStats counters the benchmark sums over
// clients and windows; the cache and write-path ones are read from the
// cluster-wide aggregates instead.
func clientCounters(s *aceso.ClientStats) []*uint64 {
	return []*uint64{&s.Ops, &s.Searches, &s.Inserts, &s.Updates, &s.Deletes,
		&s.Invalidations, &s.CASRetries, &s.LockWaits, &s.DegradedReads,
		&s.WriteFused, &s.WriteFallback,
		&s.CASIssued, &s.ReadsIssued, &s.WritesIssued, &s.BytesRead, &s.BytesWritten}
}

// delta is the change between two snapshots.
type delta struct {
	dur       time.Duration // cluster clock
	wall      time.Duration
	cli       aceso.ClientStats
	cache     obs.CacheSnapshot
	write     obs.WriteSnapshot
	mn        aceso.ServerStats // summed over MNs
	poolFree  uint64            // smallest free pool of any MN at the end
	transport aceso.TransportStats
	reclaimed int
	cpu       time.Duration
	allocs    uint64
	gcs       uint64
	fab       [numScopes]obs.FabricSnapshot
}

func diff(a, b snapshot) delta {
	d := delta{dur: b.at - a.at, wall: b.wall.Sub(a.wall), reclaimed: b.reclaimed - a.reclaimed,
		cpu: b.cpu - a.cpu, allocs: b.allocs - a.allocs, gcs: b.gcs - a.gcs}
	d.cli = b.cli
	c0 := clientCounters(&a.cli)
	for i, p := range clientCounters(&d.cli) {
		*p -= *c0[i]
	}
	k0, k1 := a.cache, b.cache
	d.cache = obs.CacheSnapshot{
		Hits: k1.Hits - k0.Hits, Misses: k1.Misses - k0.Misses, NegHits: k1.NegHits - k0.NegHits,
		Evictions: k1.Evictions - k0.Evictions, MirrorHits: k1.MirrorHits - k0.MirrorHits,
		MirrorNegHits: k1.MirrorNegHits - k0.MirrorNegHits,
		Entries:       k1.Entries, Bytes: k1.Bytes, Offloaded: k1.Offloaded, // gauges: end value
	}
	w0, w1 := a.write, b.write
	d.write = obs.WriteSnapshot{
		Fused:              w1.Fused - w0.Fused,
		FallbackDisabled:   w1.FallbackDisabled - w0.FallbackDisabled,
		FallbackCapability: w1.FallbackCapability - w0.FallbackCapability,
		FallbackInsert:     w1.FallbackInsert - w0.FallbackInsert,
		FallbackLocked:     w1.FallbackLocked - w0.FallbackLocked,
		FallbackRollover:   w1.FallbackRollover - w0.FallbackRollover,
		FallbackAddr:       w1.FallbackAddr - w0.FallbackAddr,
		PrefetchHits:       w1.PrefetchHits - w0.PrefetchHits,
		PrefetchMisses:     w1.PrefetchMisses - w0.PrefetchMisses,
		DeltaSkips:         w1.DeltaSkips - w0.DeltaSkips,
	}
	d.poolFree = ^uint64(0)
	for i := range b.mn {
		m0, m1 := a.mn[i], b.mn[i]
		// A recovered MN restarts its counters; count it from zero.
		if m1.CkptRounds < m0.CkptRounds || m1.EncodeJobs < m0.EncodeJobs {
			m0 = aceso.ServerStats{}
		}
		d.mn.CkptRounds += m1.CkptRounds - m0.CkptRounds
		d.mn.CkptBytes += m1.CkptBytes - m0.CkptBytes
		d.mn.CkptRawBytes += m1.CkptRawBytes - m0.CkptRawBytes
		d.mn.CkptSegsShipped += m1.CkptSegsShipped - m0.CkptSegsShipped
		d.mn.CkptCPUNs += m1.CkptCPUNs - m0.CkptCPUNs
		d.mn.EncodeJobs += m1.EncodeJobs - m0.EncodeJobs
		d.mn.ECEncodeBytes += m1.ECEncodeBytes - m0.ECEncodeBytes
		d.mn.ECDecodeBytes += m1.ECDecodeBytes - m0.ECDecodeBytes
		if m1.PoolFree < d.poolFree {
			d.poolFree = m1.PoolFree
		}
	}
	t0, t1 := a.transport, b.transport
	d.transport = aceso.TransportStats{Retries: t1.Retries - t0.Retries, Redials: t1.Redials - t0.Redials}
	for i := range b.fab {
		d.fab[i] = b.fab[i].Sub(a.fab[i])
	}
	return d
}

// idleCPU measures the cores the process burns over d of wall time
// with the cluster up and no client running. On simnet nothing runs
// while the engine is paused, so it reads near zero there.
func idleCPU(d time.Duration) float64 {
	runtime.GC()
	c0, w0 := processCPU(), time.Now()
	time.Sleep(d)
	return float64(processCPU()-c0) / float64(time.Since(w0))
}
