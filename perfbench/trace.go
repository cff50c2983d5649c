package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/stats"
)

// Fabric scopes: verbs issued by a bench client inside an op of each
// class, by a bench client outside any op, by its block-prefetch
// worker, and by every other process (MN daemons, the master,
// recovery).
const (
	scopeClientIdle = numClasses + iota
	scopePrefetch
	scopeServer
	numScopes
)

// Span retention: every spanEvery-th op keeps its op and verb spans for
// the trace file, up to maxSpans spans in all. Aggregates cover every
// op regardless.
const (
	spanEvery = 8
	maxSpans  = 1 << 17
)

// recorder collects what the traced run measures at the layer
// boundaries: op spans around client calls, verb spans around calls
// into rdma.Ctx, handler spans around each MN's RPC rdma.Handler, and
// per-scope verb counts through obs.WrapCtx. It keeps everything in
// memory; writeTrace renders it at the end.
type recorder struct {
	clock func() time.Duration // the simulated clock spans are stamped with
	fab   [numScopes]*obs.FabricMetrics

	mu      sync.Mutex
	on      bool // inside the measured window
	spans   []obs.Span
	dropped uint64
	ops     uint64 // window ops seen (drives span sampling)
	tids    int32
	procs   map[string]*procCtx
	cls     [numClasses]classAgg
	rpcN    uint64
	rpcBusy time.Duration
	rpcHist *stats.Histogram
	wall0   time.Time
}

// classAgg accumulates, per op class, the fabric time ops spent inside
// verbs and the wall time they spent outside every rdma.Ctx call (the
// client's own CPU: on simnet only the running process executes, and
// client code does not advance the virtual clock).
type classAgg struct {
	n        uint64
	verbTime time.Duration
	selfWall time.Duration
}

func newRecorder() *recorder {
	r := &recorder{procs: map[string]*procCtx{}, rpcHist: stats.NewHistogram(), wall0: time.Now()}
	for i := range r.fab {
		r.fab[i] = obs.NewFabricMetrics()
	}
	return r
}

// setWindow starts or stops span and aggregate recording.
func (r *recorder) setWindow(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

func (r *recorder) wallNow() int64 { return int64(time.Since(r.wall0)) }

// stamp reads the simulated clock and the wall clock.
func (r *recorder) stamp() (time.Duration, int64) { return r.clock(), r.wallNow() }

func (r *recorder) keep(sp obs.Span) {
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	sp.Seq = uint64(len(r.spans))
	r.spans = append(r.spans, sp)
}

// proc returns the ctx wrapper of the bench client process name.
func (r *recorder) proc(name string) *procCtx {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.procs[name]
}

// recordingPlatform forwards everything to the fabric through
// obs.Platform, which already forwards FaultInjector, WriteObserver,
// LocalAtomics, VirtualTime and TransportStatsSource; it overrides
// Spawn to wrap each process's ctx and SetHandler to time each MN's RPC
// handler.
type recordingPlatform struct {
	*obs.Platform
	rec *recorder
}

func (p *recordingPlatform) Spawn(node rdma.NodeID, name string, fn func(rdma.Ctx)) {
	p.Inner().Spawn(node, name, func(ctx rdma.Ctx) { fn(p.rec.wrap(ctx, name)) })
}

func (p *recordingPlatform) SetHandler(node rdma.NodeID, h rdma.Handler) {
	p.Inner().SetHandler(node, p.rec.wrapHandler(node, h))
}

// rpcNames are static span details per RPC method byte, so recording
// never formats.
var rpcNames = func() (n [256]string) {
	for i := range n {
		n[i] = fmt.Sprintf("rpc.%d", i)
	}
	return n
}()

// wrapHandler times one MN's RPC handler by the CPU it charges.
func (r *recorder) wrapHandler(node rdma.NodeID, h rdma.Handler) rdma.Handler {
	return func(method uint8, req []byte) ([]byte, time.Duration) {
		start, wall := r.stamp()
		resp, cpu := h(method, req)
		r.mu.Lock()
		if r.on {
			r.rpcN++
			r.rpcBusy += cpu
			r.rpcHist.Record(cpu)
			r.keep(obs.Span{Kind: obs.SpanPhase, Node: int32(node), Tid: int32(node), Name: "handler",
				Detail: rpcNames[method], Start: start, End: start + cpu, WallStart: wall, WallEnd: r.wallNow()})
		}
		r.mu.Unlock()
		return resp, cpu
	}
}

// wrap gives a spawned process its recording ctx: bench clients switch
// fabric scope per op class, prefetch workers and server processes
// count into their own scope.
func (r *recorder) wrap(ctx rdma.Ctx, name string) rdma.Ctx {
	p := &procCtx{raw: ctx, rec: r}
	switch {
	case strings.HasPrefix(name, benchClientPrefix):
		for i := 0; i < numClasses; i++ {
			p.scoped[i] = obs.WrapCtx(ctx, r.fab[i])
		}
		p.scoped[scopeClientIdle] = obs.WrapCtx(ctx, r.fab[scopeClientIdle])
		p.Ctx = p.scoped[scopeClientIdle]
		r.mu.Lock()
		r.tids++
		p.tid = r.tids
		r.procs[name] = p
		r.mu.Unlock()
	case strings.HasPrefix(name, "prefetch"):
		p.Ctx = obs.WrapCtx(ctx, r.fab[scopePrefetch])
	default:
		p.Ctx = obs.WrapCtx(ctx, r.fab[scopeServer])
	}
	return p
}

// procCtx records spans around the calls into the process's rdma.Ctx
// (verbs, RPCs and sleeps) while one of its ops is open. The embedded
// Ctx is the obs.WrapCtx counter of the current scope.
type procCtx struct {
	rdma.Ctx
	raw    rdma.Ctx
	rec    *recorder
	scoped [scopeClientIdle + 1]rdma.Ctx
	tid    int32

	open     bool // an op is open: calls are timed
	keep     bool // the open op's spans are retained
	cls      int
	trace    uint64
	start    time.Duration
	wall     int64
	verbTime time.Duration // fabric time inside verbs and RPCs
	ctxWall  int64         // wall time inside every ctx call
}

// OrderedBatch forwards rdma.OrderedBatcher: without it the client
// would silently lose fused commits.
func (p *procCtx) OrderedBatch() bool { return rdma.IsOrderedBatch(p.raw) }

// begin opens an op of class cls.
func (p *procCtx) begin(cls int) {
	r := p.rec
	p.Ctx = p.scoped[cls]
	r.mu.Lock()
	p.open = r.on
	if p.open {
		r.ops++
		p.keep = r.ops%spanEvery == 0
		p.trace = r.ops
	}
	r.mu.Unlock()
	p.cls, p.verbTime, p.ctxWall = cls, 0, 0
	p.start, p.wall = r.stamp()
}

// end closes the open op and charges it to its class.
func (p *procCtx) end(failed bool) {
	r := p.rec
	p.Ctx = p.scoped[scopeClientIdle]
	if !p.open {
		return
	}
	p.open = false
	end, wall := r.stamp()
	r.mu.Lock()
	a := &r.cls[p.cls]
	a.n++
	a.verbTime += p.verbTime
	a.selfWall += time.Duration(wall - p.wall - p.ctxWall)
	if p.keep {
		r.keep(obs.Span{Trace: p.trace, Kind: obs.SpanOp, Err: failed, Node: -1, Tid: p.tid,
			Name: classNames[p.cls], Start: p.start, End: end, WallStart: p.wall, WallEnd: wall})
	}
	r.mu.Unlock()
}

func (p *procCtx) enter() (time.Duration, int64) {
	if !p.open {
		return 0, 0
	}
	return p.rec.stamp()
}

// leave closes the span of one ctx call; verb is false for sleeps,
// which count as waiting but not as fabric time.
func (p *procCtx) leave(name string, node rdma.NodeID, start time.Duration, wall int64, err error, verb bool) {
	if !p.open {
		return
	}
	r := p.rec
	end, wallEnd := r.stamp()
	p.ctxWall += wallEnd - wall
	kind := obs.SpanMark
	if verb {
		p.verbTime += end - start
		kind = obs.SpanVerb
	}
	if p.keep {
		r.mu.Lock()
		r.keep(obs.Span{Trace: p.trace, Kind: kind, Err: err != nil, Node: int32(node), Tid: p.tid,
			Name: name, Start: start, End: end, WallStart: wall, WallEnd: wallEnd})
		r.mu.Unlock()
	}
}

func firstNode(ops []rdma.Op) rdma.NodeID {
	if len(ops) > 0 {
		return ops[0].Addr.Node
	}
	return 0
}

func (p *procCtx) Read(buf []byte, addr rdma.GlobalAddr) error {
	t, w := p.enter()
	err := p.Ctx.Read(buf, addr)
	p.leave("read", addr.Node, t, w, err, true)
	return err
}

func (p *procCtx) Write(addr rdma.GlobalAddr, data []byte) error {
	t, w := p.enter()
	err := p.Ctx.Write(addr, data)
	p.leave("write", addr.Node, t, w, err, true)
	return err
}

func (p *procCtx) CAS(addr rdma.GlobalAddr, old, new uint64) (uint64, error) {
	t, w := p.enter()
	prev, err := p.Ctx.CAS(addr, old, new)
	p.leave("cas", addr.Node, t, w, err, true)
	return prev, err
}

func (p *procCtx) FAA(addr rdma.GlobalAddr, delta uint64) (uint64, error) {
	t, w := p.enter()
	prev, err := p.Ctx.FAA(addr, delta)
	p.leave("faa", addr.Node, t, w, err, true)
	return prev, err
}

func (p *procCtx) Batch(ops []rdma.Op) error {
	t, w := p.enter()
	err := p.Ctx.Batch(ops)
	p.leave("batch", firstNode(ops), t, w, err, true)
	return err
}

func (p *procCtx) Post(ops []rdma.Op) error {
	t, w := p.enter()
	err := p.Ctx.Post(ops)
	p.leave("post", firstNode(ops), t, w, err, true)
	return err
}

func (p *procCtx) RPC(node rdma.NodeID, method uint8, req []byte) ([]byte, error) {
	t, w := p.enter()
	resp, err := p.Ctx.RPC(node, method, req)
	p.leave("rpc", node, t, w, err, true)
	return resp, err
}

// Sleep is timed too: on simnet other processes run while this one
// sleeps, so its wall time must not count as the client's own.
func (p *procCtx) Sleep(d time.Duration) {
	t, w := p.enter()
	p.Ctx.Sleep(d)
	p.leave("sleep", 0, t, w, nil, false)
}

// writeTrace writes the retained spans and the cluster's trace-ring
// events as a Perfetto-loadable trace_event file.
func (r *recorder) writeTrace(path string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	err = obs.WriteChromeTrace(w, r.spans, events)
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
