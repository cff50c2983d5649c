package main

import (
	"time"

	"repro/internal/obs"
	"repro/internal/rdma"
)

// ratio returns a/b, or 0 when b is 0 (no work of that kind ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetrics derives the per-layer metrics of a traced simnet window.
// ref is an untraced simnet window of the same workload, for the tracing
// overhead; tcp is the workload's one-client tcpnet window, reported
// for its wall-clock figures without a bound. Recovery comes from the
// simnet window's fail-stop when the spec has one, else from the one
// after the tcpnet window.
func layerMetrics(e *env, res *result, ref, tcp childResult) map[string]metric {
	d, rec := res.d, e.rec
	ops := float64(res.ops)
	var classOps [numClasses]float64
	for c := range classOps {
		classOps[c] = float64(res.lat[c].Count())
	}
	gets := classOps[clsGet]
	writes := classOps[clsUpdate] + classOps[clsInsert] + classOps[clsDelete]
	secs := d.dur.Seconds()
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("workload.gen_ns_per_op", ratio(float64(e.genNs), float64(e.genOps)), "ns")

	// core client: CPU and retries.
	rec.mu.Lock()
	agg := rec.cls
	rpcN, rpcBusy, rpcP99 := rec.rpcN, rec.rpcBusy, rec.rpcHist.Percentile(0.99)
	rec.mu.Unlock()
	for c, a := range agg {
		put("op."+classNames[c]+"_samples", classOps[c], "count")
		put("op."+classNames[c]+"_p50_us", us(res.lat[c].Percentile(0.50)), "us")
		if c != clsGet {
			put("op."+classNames[c]+"_p99_us", us(res.lat[c].Percentile(0.99)), "us")
		}
		n := float64(a.n)
		put("client.self_us."+classNames[c], ratio(us(a.selfWall), n), "us")
		put("fabric.wait_us_per_op."+classNames[c], ratio(us(a.verbTime), n), "us")
	}
	put("client.cas_retries_per_op", ratio(float64(d.cli.CASRetries), ops), "count")
	put("client.invalidations_per_op", ratio(float64(d.cli.Invalidations), ops), "count")
	put("client.lock_waits_per_op", ratio(float64(d.cli.LockWaits), ops), "count")

	// core cache.
	put("cache.hit_ratio", ratio(float64(d.cache.Hits), float64(d.cache.Hits+d.cache.Misses)), "ratio")
	put("cache.neg_hits_per_get", ratio(float64(d.cache.NegHits), gets), "count")
	put("cache.mirror_hits_per_get", ratio(float64(d.cache.MirrorHits), gets), "count")
	put("cache.evictions_per_op", ratio(float64(d.cache.Evictions), ops), "count")
	put("cache.resident_mb", float64(d.cache.Bytes)/(1<<20), "MB")

	// core write path.
	fb := d.write.Fallbacks()
	put("write.fused_ratio", ratio(float64(d.write.Fused), float64(d.write.Fused+fb)), "ratio")
	put("write.fallback_per_write", ratio(float64(fb), writes), "count")
	put("write.prefetch_hit_ratio", ratio(float64(d.write.PrefetchHits), float64(d.write.PrefetchHits+d.write.PrefetchMisses)), "ratio")
	var syncRPC uint64
	for _, c := range []int{clsUpdate, clsInsert, clsDelete} {
		syncRPC += d.fab[c].Calls[obs.CallRPC].Count
	}
	put("write.sync_rpc_per_write", ratio(float64(syncRPC), writes), "count")
	put("write.delta_skips", float64(d.write.DeltaSkips), "count")

	// rdma fabric, per op class, from the bench clients' scopes.
	var clientRPC uint64
	for c := range classOps {
		f := d.fab[c]
		var verbs, bytes uint64
		for k := rdma.OpRead; k <= rdma.OpFAA; k++ {
			verbs += f.OpCount(k)
			bytes += f.OpBytes(k)
		}
		bytes += f.RPCBytes
		clientRPC += f.Calls[obs.CallRPC].Count
		put("fabric.verbs_per_op."+classNames[c], ratio(float64(verbs), classOps[c]), "count")
		put("fabric.doorbells_per_op."+classNames[c], ratio(float64(f.Doorbells()), classOps[c]), "count")
		put("fabric.bytes_per_op."+classNames[c], ratio(float64(bytes), classOps[c]), "bytes")
	}
	clientRPC += d.fab[scopeClientIdle].Calls[obs.CallRPC].Count + d.fab[scopePrefetch].Calls[obs.CallRPC].Count
	put("fabric.rpc_per_op", ratio(float64(clientRPC), ops), "count")
	put("fabric.retries", float64(d.transport.Retries), "count")
	put("fabric.redials", float64(d.transport.Redials), "count")

	// core server RPC handlers.
	put("mn.rpc_calls_per_op", ratio(float64(rpcN), ops), "count")
	put("mn.rpc_busy_us_per_op", ratio(us(rpcBusy), ops), "us")
	put("mn.rpc_p99_us", us(rpcP99), "us")

	// core checkpoint + lz4, from the tcpnet window: a round starts every
	// 500 ms, so none lands inside a simnet window.
	ck := tcp.MN
	put("ckpt.rounds", float64(ck.CkptRounds), "count")
	put("ckpt.bytes_per_round", ratio(float64(ck.CkptBytes), float64(ck.CkptRounds)), "bytes")
	put("ckpt.compress_ratio", ratio(float64(ck.CkptRawBytes), float64(ck.CkptBytes)), "ratio")
	put("ckpt.cpu_ms_per_s", ratio(ms(time.Duration(ck.CkptCPUNs)), tcp.WallS), "ms/s")
	put("ckpt.dirty_segs", ratio(float64(ck.CkptSegsShipped), float64(ck.CkptRounds)), "count")

	// core ecpool + erasure, reclamation and the block pool.
	put("ec.encode_jobs", float64(d.mn.EncodeJobs), "count")
	put("ec.encode_mb_per_s", ratio(float64(d.mn.ECEncodeBytes)/(1<<20), secs), "MB/s")
	put("ec.decode_mb", float64(d.mn.ECDecodeBytes)/(1<<20), "MB")
	put("reclaim.blocks", float64(d.reclaimed), "count")
	put("pool.free_blocks_min", float64(d.poolFree), "count")

	// core recovery/master.
	r, degradedP99 := res.recovery, us(res.degraded.Percentile(0.99))
	if r == nil {
		r, degradedP99 = tcp.Recovery, tcp.DegradedP99Us
	}
	if r != nil {
		put("recovery.read_meta_ms", ms(r.ReadMeta), "ms")
		put("recovery.read_ckpt_ms", ms(r.ReadCkpt), "ms")
		put("recovery.lblock_ms", ms(r.RecoverLBlock), "ms")
		put("recovery.scan_kv_ms", ms(r.ScanKV), "ms")
		put("recovery.old_lblock_ms", ms(r.RecoverOldLBlock), "ms")
		put("recovery.index_ms", ms(r.IndexDone), "ms")
		put("recovery.total_ms", ms(r.Total), "ms")
	}
	put("recovery.degraded_get_p99_us", degradedP99, "us")

	// Go runtime, whole process.
	put("proc.cpu_us_per_op", ratio(us(d.cpu), ops), "us")
	put("proc.allocs_per_op", ratio(float64(d.allocs), ops), "count")
	put("proc.gc_cycles", float64(d.gcs), "count")
	put("proc.goroutines_end", float64(res.goroutines), "count")

	// tcpnet wall clock: whole-op figures and the CPU an idle cluster
	// burns (over 0.5 s after set-up, no client running).
	for _, name := range []string{"throughput_ops", "get_p99_us", "write_p99_us"} {
		put("tcpnet."+name, tcp.Metrics[name].Value, tcp.Metrics[name].Unit)
	}
	put("tcpnet.get_p50_us", tcp.GetP50Us, "us")
	put("tcpnet.idle_cpu_cores", tcp.IdleCores, "cores")

	traced := float64(res.ops) / res.wall.Seconds()
	put("trace.overhead_pct", 100*(1-traced/(float64(ref.Ops)/ref.WallS)), "%")
	put("failed_ops_ratio", ratio(float64(res.failed+ref.Failed+tcp.Failed), float64(res.attempted+ref.Attempted+tcp.Attempted)), "ratio")
	return m
}
