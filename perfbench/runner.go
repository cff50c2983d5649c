package main

import (
	"errors"
	"fmt"
	"time"

	aceso "repro"
	"repro/internal/stats"
)

// benchClientPrefix names the measured client processes; the recording
// platform recognises them by it.
const benchClientPrefix = "bench-"

// window is the measured interval on the cluster clock. An op counts
// toward latency and throughput when it starts and ends inside it.
// Clients stop issuing ops once the clock passes end.
type window struct {
	start, end time.Duration
	// warmOps, when not negative, opens the window once a client has
	// issued that many ops (tcpnet); start is then set on opening.
	warmOps int
	// atStart and atEnd, when set, are called by client 0 when it
	// crosses the bounds (tcpnet, where counters must be read from the
	// client's own goroutine); on simnet measure snapshots with the
	// engine paused instead.
	atStart, atEnd func()
}

func newClassHists() (h [numClasses]*stats.Histogram) {
	for i := range h {
		h[i] = stats.NewHistogram()
	}
	return h
}

// failState tracks the injected fail-stop so GETs issued between the
// crash and blocks-ready are recorded as degraded.
type failState struct {
	injected, healed bool
}

// runner drives one client's stream, checks every result and records
// op latency inside the window.
type runner struct {
	h       cluster
	st      *stream
	nShared int
	id      uint16 // writer id written into values, 1-based
	// exact: this is the only writer, so every shared key's state is
	// known; otherwise only this client's private keys are.
	exact   bool
	writers uint16
	model   []version // by key-table index
	seq     uint32
	val     []byte
	buf     []byte
	pos     int
	w       *window
	fs      *failState
	pc      *procCtx // nil when untraced
	c       *aceso.Client

	lat                      [numClasses]*stats.Histogram
	latSum                   [numClasses]time.Duration // for exact means
	degraded                 *stats.Histogram
	attempted, failed, wrong uint64
	firstErr                 string
	exhausted                bool
}

func newRunner(h cluster, st *stream, nShared, c, clients int, w *window, fs *failState) *runner {
	r := &runner{h: h, st: st, nShared: nShared, id: uint16(c + 1), exact: clients == 1,
		writers: uint16(clients), w: w, fs: fs,
		model: make([]version, len(st.keys)), val: make([]byte, valueSize),
		buf: make([]byte, 0, valueSize), degraded: stats.NewHistogram(), lat: newClassHists()}
	for i := 0; i < nShared; i++ {
		r.model[i] = mkVersion(preloadWriter, 1)
	}
	return r
}

// run issues ops until the clock passes the window end. It is the body
// of the client process.
func (r *runner) run(c *aceso.Client) {
	r.c = c
	started := false
	for {
		now := r.h.Now()
		if !started && (r.pos == r.w.warmOps || now >= r.w.start) {
			started = true
			if r.w.atStart != nil {
				r.w.atStart()
			}
		}
		if now >= r.w.end {
			break
		}
		if r.pos == len(r.st.ops) {
			r.exhausted = true
			break
		}
		r.do(r.st.ops[r.pos])
		r.pos++
	}
	if r.w.atEnd != nil {
		r.w.atEnd()
	}
}

// degradedNow reports whether a GET issued now overlaps the recovery
// of the failed MN.
func (r *runner) degradedNow() bool {
	if r.fs == nil || !r.fs.injected || r.fs.healed {
		return false
	}
	if _, _, blocks := r.h.MNState(failMN); blocks {
		r.fs.healed = true
		return false
	}
	return true
}

// do issues one op, times it and checks its result.
func (r *runner) do(o op) {
	key := r.st.keys[o.key]
	kid := r.st.keyID[o.key]
	cls := int(o.class)
	if cls == clsUpdate || cls == clsInsert {
		r.seq++
		stampValue(r.val, kid, r.id, r.seq)
	}
	deg := cls == clsGet && r.degradedNow()
	var (
		got []byte
		err error
	)
	t0 := r.h.Now()
	if r.pc != nil {
		r.pc.begin(cls)
	}
	switch cls {
	case clsGet:
		got, err = r.c.SearchAppend(r.buf[:0], key)
	case clsUpdate:
		err = r.c.Update(key, r.val)
	case clsInsert:
		err = r.c.Insert(key, r.val)
	case clsDelete:
		err = r.c.Delete(key)
	}
	if r.pc != nil {
		r.pc.end(err != nil && !errors.Is(err, aceso.ErrNotFound))
	}
	t1 := r.h.Now()
	r.attempted++
	if t0 >= r.w.start && t1 <= r.w.end {
		r.lat[cls].Record(t1 - t0)
		r.latSum[cls] += t1 - t0
	}
	if deg {
		r.degraded.Record(t1 - t0)
	}
	if cls == clsGet && got != nil {
		r.buf = got[:0]
	}
	r.check(o, kid, got, err)
}

// check compares one result against the key-state model.
func (r *runner) check(o op, kid uint32, got []byte, err error) {
	known := r.exact || int(o.key) >= r.nShared
	want := r.model[o.key]
	switch int(o.class) {
	case clsGet:
		switch {
		case errors.Is(err, aceso.ErrNotFound):
			if !known || want != 0 {
				r.fail(true, "GET %s: NotFound for a live key", r.st.keys[o.key])
			}
		case err != nil:
			r.fail(false, "GET %s: %v", r.st.keys[o.key], err)
		default:
			k, wr, seq, ok := parseValue(got)
			switch {
			case !ok:
				r.fail(true, "GET %s: malformed value", r.st.keys[o.key])
			case k != kid:
				r.fail(true, "GET %s: value of key %d", r.st.keys[o.key], k)
			case known && mkVersion(wr, seq) != want:
				r.fail(true, "GET %s: writer %d seq %d, want version %#x", r.st.keys[o.key], wr, seq, uint64(want))
			case !known && wr != preloadWriter && (wr == 0 || wr > r.writers):
				r.fail(true, "GET %s: unknown writer %d", r.st.keys[o.key], wr)
			}
		}
	case clsUpdate, clsInsert:
		if err != nil {
			r.fail(false, "write %s: %v", r.st.keys[o.key], err)
			return
		}
		r.model[o.key] = mkVersion(r.id, r.seq)
	case clsDelete:
		if err != nil {
			r.fail(errors.Is(err, aceso.ErrNotFound), "DELETE %s: %v", r.st.keys[o.key], err)
			return
		}
		r.model[o.key] = 0
	}
}

func (r *runner) fail(wrong bool, format string, args ...any) {
	r.failed++
	if wrong {
		r.wrong++
	}
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf("client %d: ", r.id) + fmt.Sprintf(format, args...)
	}
}

// liveBytes is the key+value payload of this client's live private
// keys (shared keys are counted once by the caller).
func (r *runner) liveBytes() uint64 {
	var n uint64
	for i := r.nShared; i < len(r.model); i++ {
		if r.model[i] != 0 {
			n += uint64(len(r.st.keys[i]) + valueSize)
		}
	}
	return n
}
