// Command perfbench is the repository benchmark: it drives the Aceso KV
// surface from one process on three workloads, checks every op's result
// and prints end-to-end metrics (--trace 0) or per-layer metrics from a
// separate traced run (--trace 1) as one JSON line. README.md explains
// the workloads and the metric map. Run it from the repository root:
//
//	bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	aceso "repro"
	"repro/internal/stats"
)

// Run shape. The measured windows run on simnet: each spec's window is
// fixed virtual time, so a seed replays bit for bit. A checkpoint round
// completes before clients start, and a failing spec's MN failMN
// fail-stops shortly after its window opens. The tcpnet window of a
// --trace 1 run is --seconds of wall time after a warm-up; when the spec
// has no in-window failure, MN failMN fail-stops after it.
const (
	e2eMinWindows = 3     // fewest windows per --trace 0 run, each with its own seed; metrics are their medians
	e2eMaxWindows = 15    // most windows per --trace 0 run, however fast the host
	tcpWarmOps    = 10000 // ops before the tcpnet window opens (fills the client cache)
	tcpMaxRate    = 60000 // ops/s per client the rendered stream must outlast
	tcpCodaLimit  = 30 * time.Second
	simWarm       = 20 * time.Millisecond
	simFailAfter  = 50 * time.Millisecond
	simMaxRate    = 400000 // virtual ops/s per client the stream must outlast
	idleInterval  = 500 * time.Millisecond
)

type options struct {
	seed    int64
	seconds int
	out     string // directory for the trace file
	fabric  string
	// coda: after the window, fail-stop MN failMN and keep the clients
	// running until recovery completes (tcpnet only, see runner.coda).
	coda bool
}

func main() {
	name := flag.String("workload", "", "workload: read-hot | write-large | mn-failure")
	seed := flag.Int64("seed", 1, "seed for the generated load")
	seconds := flag.Int("seconds", 10, "wall-clock seconds to measure: simnet windows of a --trace 0 run, the tcpnet window of a --trace 1 run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory the traced run writes its Perfetto trace to")
	child := flag.Bool("child", false, "internal: set up and measure one untraced window, print it as JSON")
	fabric := flag.String("fabric", aceso.FabricSim, "internal: fabric of a --child window")
	coda := flag.Bool("coda", false, "internal: fail-stop an MN after a --child window and measure recovery")
	flag.Parse()
	s, err := specByName(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, out: *out, fabric: *fabric, coda: *coda}
	if *child {
		cr, err := childRun(s, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		line, _ := json.Marshal(cr)
		fmt.Println(string(line))
		return
	}
	var rep report
	if *trace == 0 {
		rep, err = endToEndRun(s, o)
	} else {
		rep, err = perLayerRun(s, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is one set-up cluster with its clients' rendered load.
type env struct {
	s       spec
	h       cluster
	rec     *recorder
	runners []*runner
	w       window
	fs      failState
	genNs   int64
	genOps  int
}

// setup opens the cluster, preloads the shared keys and renders every
// client's load.
func setup(s spec, o options, rec *recorder) (*env, error) {
	h, err := openCluster(o.fabric, rec)
	if err != nil {
		return nil, err
	}
	h.Start()
	e := &env{s: s, h: h, rec: rec}
	shared := sharedKeys(s.keys)
	if err := preload(h, shared); err != nil {
		h.Close()
		return nil, err
	}
	// Size the stream to outlast the window (and on tcpnet a
	// post-window recovery).
	n := int((simWarm + s.window).Seconds() * simMaxRate)
	if o.fabric == aceso.FabricTCP {
		n = (tcpWarmOps + o.seconds*tcpMaxRate) * 3 / 2
	}
	for c := 0; c < s.clients; c++ {
		st := newStream(s, shared, c, n, o.seed)
		e.genNs += st.genNs
		e.genOps += len(st.ops)
		e.runners = append(e.runners, newRunner(h, st, len(shared), c, s.clients, &e.w, &e.fs))
	}
	return e, nil
}

// preload inserts every shared key from one loader client.
func preload(h cluster, keys [][]byte) error {
	var err error
	var done atomic.Bool
	h.SpawnClient("load", func(c *aceso.Client) {
		val := make([]byte, valueSize)
		for i, k := range keys {
			stampValue(val, uint32(i), preloadWriter, 1)
			if err = c.Insert(k, val); err != nil {
				err = fmt.Errorf("preload %s: %w", k, err)
				break
			}
		}
		c.Close()
		done.Store(true)
	})
	if !h.RunUntil(done.Load) {
		return errors.New("preload did not finish")
	}
	return err
}

func (e *env) close() {
	e.h.Close()
	e.h = nil
	runtime.GC()
	debug.FreeOSMemory()
}

// result is what one measured window produced.
type result struct {
	ops        uint64 // ops that started and ended inside the window
	dur, wall  time.Duration
	lat        [numClasses]*stats.Histogram
	latSum     [numClasses]time.Duration
	degraded   *stats.Histogram
	d          delta
	spaceAmp   float64
	attempted  uint64
	failed     uint64
	firstErr   string
	recovery   *aceso.RecoveryReport
	goroutines int
}

// measure runs the clients through the window and collects the result.
// --coda runs then fail-stop MN failMN and keep the client going until
// recovery completes.
func (e *env) measure(o options) (*result, error) {
	h, s := e.h, e.s
	var s0, s1 snapshot
	res := &result{degraded: stats.NewHistogram()}
	snap := func(start bool) {
		if start {
			// Space is read here, after a fixed amount of work, not at
			// the end: out-of-place writes grow the footprint with
			// every op, so a faster run would read as more amplified.
			res.spaceAmp = e.spaceAmp()
			s0 = takeSnapshot(h, e.runners, e.rec)
			if e.rec != nil {
				e.rec.setWindow(true)
			}
			return
		}
		if e.rec != nil {
			e.rec.setWindow(false)
		}
		s1 = takeSnapshot(h, e.runners, e.rec)
		res.goroutines = runtime.NumGoroutine()
	}
	var exited atomic.Int32
	spawn := func() {
		for i, r := range e.runners {
			r := r
			h.SpawnClient(fmt.Sprintf("%s%d", benchClientPrefix, i), func(c *aceso.Client) {
				if e.rec != nil {
					r.pc = e.rec.proc(fmt.Sprintf("%s%d", benchClientPrefix, i))
				}
				r.run(c)
				if o.coda {
					r.coda()
				}
				exited.Add(1)
			})
		}
	}
	if o.fabric == aceso.FabricTCP {
		dur := time.Duration(o.seconds) * time.Second
		e.w = window{start: 1 << 62, end: 1 << 62, warmOps: tcpWarmOps}
		e.w.atStart = func() {
			snap(true)
			e.w.start = h.Now()
			e.w.end = e.w.start + dur
		}
		e.w.atEnd = func() { snap(false) }
		spawn()
		if !h.RunUntil(func() bool { return int(exited.Load()) == len(e.runners) }) {
			return nil, errors.New("clients did not finish")
		}
	} else {
		// Let every MN ship a checkpoint round of the preloaded index
		// before the clients start.
		rounds := func() (n uint64) {
			for mn := 0; mn < h.NumMNs(); mn++ {
				n += h.MNStats(mn).CkptRounds
			}
			return n
		}
		if !h.RunUntil(func() bool { return rounds() >= uint64(h.NumMNs()) }) {
			return nil, errors.New("no checkpoint round completed")
		}
		e.w = window{start: h.Now() + simWarm, warmOps: -1}
		e.w.end = e.w.start + s.window
		spawn()
		h.Advance(e.w.start - h.Now())
		snap(true)
		if s.fail {
			h.Advance(simFailAfter)
			h.FailMN(failMN)
			e.fs.injected = true
		}
		h.Advance(e.w.end - h.Now())
		snap(false)
		if !h.RunUntil(func() bool { return int(exited.Load()) == len(e.runners) }) {
			return nil, errors.New("clients did not finish")
		}
	}
	if e.fs.injected {
		if !h.RunUntil(func() bool { return len(h.RecoveryReports()) > 0 }) {
			return nil, errors.New("recovery did not finish")
		}
		res.recovery = h.RecoveryReports()[0]
	}
	res.d = diff(s0, s1)
	res.dur, res.wall = e.w.end-e.w.start, res.d.wall
	res.lat = newClassHists()
	for _, r := range e.runners {
		for c := range r.lat {
			res.lat[c].Merge(r.lat[c])
			res.latSum[c] += r.latSum[c]
			res.ops += r.lat[c].Count()
		}
		res.degraded.Merge(r.degraded)
		res.attempted += r.attempted
		res.failed += r.failed
		if res.firstErr == "" {
			res.firstErr = r.firstErr
		}
		if r.exhausted {
			return nil, fmt.Errorf("client %d ran out of rendered ops; raise the stream size", r.id)
		}
	}
	if res.firstErr != "" {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", res.firstErr)
	}
	return res, nil
}

// coda fail-stops MN failMN after the tcpnet window and keeps issuing
// the stream's GETs until recovery completes. It never runs on simnet,
// where a fail-stop can crash the process (README.md, "Known defect").
// It skips writes, which are measured under recovery inside
// mn-failure's window; the key-state model stays exact, since a skipped
// write changes nothing.
func (r *runner) coda() {
	if !r.fs.injected {
		r.h.FailMN(failMN)
		r.fs.injected = true
	}
	limit := time.Now().Add(tcpCodaLimit)
	for ; r.pos < len(r.st.ops) && time.Now().Before(limit); r.pos++ {
		if r.fs.healed && len(r.h.RecoveryReports()) > 0 {
			return
		}
		if o := r.st.ops[r.pos]; o.class == clsGet {
			r.do(o)
		}
	}
	r.fail(false, "recovery did not complete during the post-window phase")
}

// spaceAmp is the block-area footprint over the live key+value bytes.
func (e *env) spaceAmp() float64 {
	live := uint64(0)
	for _, k := range e.runners[0].st.keys[:e.runners[0].nShared] {
		live += uint64(len(k) + valueSize)
	}
	for _, r := range e.runners {
		live += r.liveBytes()
	}
	return float64(e.h.Usage().TotalBytes) / float64(live)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// childResult is what a child process reports: one timed set-up and one
// untraced window. Every untraced cluster runs in a child of its own,
// because a closed tcpnet cluster's goroutines keep running until their
// process exits and would steal the next cluster's CPU.
type childResult struct {
	Ops       uint64            `json:"ops"`
	WallS     float64           `json:"wall_s"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	GetP50Us  float64           `json:"get_p50_us"`
	// MN counters over the window, summed over MNs.
	MN aceso.ServerStats `json:"mn"`
	// Set by --coda children.
	Recovery      *aceso.RecoveryReport `json:"recovery"`
	DegradedP99Us float64               `json:"degraded_get_p99_us"`
	IdleCores     float64               `json:"idle_cores"`
}

// runChild runs one window in a child process and waits for it.
func runChild(s spec, o options) (childResult, error) {
	var cr childResult
	exe, err := os.Executable()
	if err != nil {
		return cr, err
	}
	cmd := exec.Command(exe, "--workload", s.name, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds), "--out", o.out, "--child",
		"--fabric", o.fabric, fmt.Sprintf("--coda=%t", o.coda))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return cr, fmt.Errorf("child: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr); err != nil {
		return cr, fmt.Errorf("child output: %w", err)
	}
	return cr, nil
}

// childRun is the body of a child process. A tcpnet child runs the
// spec's mix with one client and no in-window failure: the window
// machinery reads client counters from the only client's goroutine.
func childRun(s spec, o options) (childResult, error) {
	if o.fabric == aceso.FabricTCP {
		s.clients, s.fail = 1, false
	}
	t0 := time.Now()
	e, err := setup(s, o, nil)
	if err != nil {
		return childResult{}, err
	}
	setupS := time.Since(t0).Seconds()
	var cr childResult
	if o.coda {
		cr.IdleCores = idleCPU(idleInterval)
	}
	res, err := e.measure(o)
	if err != nil {
		return childResult{}, err
	}
	e.close()
	cr.Ops, cr.WallS, cr.Attempted, cr.Failed = res.ops, res.wall.Seconds(), res.attempted, res.failed
	cr.Metrics = endToEndMetrics(res, setupS)
	cr.GetP50Us = us(res.lat[clsGet].Percentile(0.50))
	cr.MN = res.d.mn
	cr.Recovery = res.recovery
	cr.DegradedP99Us = us(res.degraded.Percentile(0.99))
	return cr, nil
}

// endToEndRun measures untraced simnet windows, each in its own child
// process with its own set-up and a seed derived from o.seed, until they
// have taken o.seconds of wall time (at least e2eMinWindows, at most
// e2eMaxWindows), and reports the median of every end-to-end metric.
func endToEndRun(s spec, o options) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	values := map[string][]float64{}
	co := o
	co.fabric = aceso.FabricSim
	wall := 0.0
	for i := int64(0); i < e2eMaxWindows && (i < e2eMinWindows || wall < float64(o.seconds)); i++ {
		co.seed = o.seed*e2eMaxWindows + i
		cr, err := runChild(s, co)
		if err != nil {
			return report{}, err
		}
		wall += cr.WallS
		rep.Attempted += cr.Attempted
		rep.Failed += cr.Failed
		for name, m := range cr.Metrics {
			values[name] = append(values[name], m.Value)
			rep.Metrics[name] = m
		}
	}
	for name, vs := range values {
		rep.Metrics[name] = metric{median(vs), rep.Metrics[name].Unit}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// endToEndMetrics derives the end-to-end metrics of one untraced window.
// On simnet times and rates are virtual.
func endToEndMetrics(res *result, setupS float64) map[string]metric {
	m := map[string]metric{
		"throughput_ops": {float64(res.ops) / res.dur.Seconds(), "ops/s"},
		"space_amp":      {res.spaceAmp, "ratio"},
		"peak_rss_mb":    {float64(peakRSS()) / (1 << 20), "MB"},
		"setup_s":        {setupS, "s"},
	}
	// Means, not medians: simnet latencies are sums of modelled costs,
	// so a class's median sits on one exact cost (an uncontended INSERT
	// is 10.452 µs in every run) while the mean weighs every path.
	writes := stats.NewHistogram()
	for c, h := range res.lat {
		// Unrounded: Histogram.Mean truncates to whole nanoseconds.
		m[classNames[c]+"_mean_us"] = metric{us(res.latSum[c]) / float64(max(h.Count(), 1)), "us"}
		if c != clsGet {
			writes.Merge(h)
		}
	}
	// One tail for all writes: at 2% of the ops, a write class alone has
	// too few samples for a steady p99.
	m["get_p99_us"] = metric{us(res.lat[clsGet].Percentile(0.99)), "us"}
	m["write_p99_us"] = metric{us(writes.Percentile(0.99)), "us"}
	return m
}

// perLayerRun measures two untraced child windows, a simnet reference
// for the tracing overhead and a tcpnet window for the wall-clock
// figures (with a post-window fail-stop when the spec has no in-window
// one), then a traced simnet window here, and reports the per-layer
// metrics.
func perLayerRun(s spec, o options) (report, error) {
	o.fabric = aceso.FabricSim
	ref, err := runChild(s, o)
	if err != nil {
		return report{}, err
	}
	to := o
	to.fabric, to.coda = aceso.FabricTCP, !s.fail
	tcp, err := runChild(s, to)
	if err != nil {
		return report{}, err
	}
	rec := newRecorder()
	e, err := setup(s, o, rec)
	if err != nil {
		return report{}, err
	}
	res, err := e.measure(o)
	if err != nil {
		return report{}, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return report{}, err
	}
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", s.name, o.seed))
	if err := rec.writeTrace(path, e.h.Trace()); err != nil {
		return report{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s (%d spans kept, %d over the cap)\n", path, len(rec.spans), rec.dropped)
	m := layerMetrics(e, res, ref, tcp)
	e.close()
	failed := res.failed + ref.Failed + tcp.Failed
	return report{Correct: failed == 0, Attempted: res.attempted + ref.Attempted + tcp.Attempted, Failed: failed, Metrics: m}, nil
}
