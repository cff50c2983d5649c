package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/workload"
)

// Op classes, in the order every per-class array uses.
const (
	clsGet = iota
	clsUpdate
	clsInsert
	clsDelete
	numClasses
)

var classNames = [numClasses]string{"get", "update", "insert", "delete"}

// spec is one named workload. Every workload mixes all four op
// classes so each end-to-end latency metric is measured on each of
// them (see README.md for why each was chosen).
type spec struct {
	name    string
	clients int
	keys    int // preloaded keys; GET and UPDATE draw from these
	// frac is the op mix by class. INSERTs create keys private to the
	// issuing client and DELETEs remove the oldest of them, so the
	// preloaded keys are never deleted and churn keeps the live set
	// about constant.
	frac  [numClasses]float64
	theta float64 // Zipf skew over the preloaded keys; 0 = uniform
	// window is the measured span of virtual time on simnet.
	window time.Duration
	// fail: fail-stop MN failMN inside the simnet window.
	fail bool
}

const (
	valueSize = 1024
	failMN    = 1
	// freshSpan separates the private insert-key ranges of clients.
	freshSpan = 1 << 24
)

var specs = []spec{
	{name: "read-hot", clients: 4, keys: 10000, window: 200 * time.Millisecond,
		frac: [numClasses]float64{0.94, 0.02, 0.02, 0.02}, theta: 0.99},
	{name: "write-large", clients: 4, keys: 65536, window: 200 * time.Millisecond,
		frac: [numClasses]float64{0.40, 0.40, 0.10, 0.10}},
	{name: "mn-failure", clients: 8, keys: 10000, window: 300 * time.Millisecond,
		frac: [numClasses]float64{0.48, 0.48, 0.02, 0.02}, theta: 0.99, fail: true},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// op is one pre-generated request: its class and an index into the
// client's rendered key table.
type op struct {
	class uint8
	key   uint32
}

// stream is one client's pre-rendered load: the op sequence and every
// key it names, rendered during set-up so neither op latency nor the
// allocation count includes generator work.
type stream struct {
	ops  []op
	keys [][]byte // keys[i] for i < spec.keys are the shared preloaded keys
	// keyID maps a key-table index to the global key index written
	// into values, so values name their key across clients.
	keyID []uint32
	// genNs is the wall time spent rendering the stream.
	genNs int64
}

// newStream renders n ops for client c. After every INSERT or DELETE
// the client's next GET reads that key back, so read-your-writes and
// NotFound-after-delete are checked on every workload.
func newStream(s spec, shared [][]byte, c int, n int, seed int64) *stream {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
	var zipf *workload.Zipfian
	if s.theta > 0 {
		zipf = workload.NewZipfian(rng, uint64(s.keys), s.theta)
	}
	pick := func() uint32 {
		if zipf != nil {
			return uint32(zipf.Next())
		}
		return uint32(rng.Int63n(int64(s.keys)))
	}
	st := &stream{ops: make([]op, 0, n), keys: append(make([][]byte, 0, len(shared)+n/8), shared...)}
	st.keyID = make([]uint32, len(shared), len(shared)+n/8)
	for i := range st.keyID {
		st.keyID[i] = uint32(i)
	}
	var live []uint32 // this client's inserted, not yet deleted keys
	readBack := -1    // key the next GET must read back, -1 if none
	for len(st.ops) < n {
		r := rng.Float64()
		cls := clsDelete
		switch {
		case r < s.frac[clsGet]:
			cls = clsGet
		case r < s.frac[clsGet]+s.frac[clsUpdate]:
			cls = clsUpdate
		case r < s.frac[clsGet]+s.frac[clsUpdate]+s.frac[clsInsert]:
			cls = clsInsert
		}
		if cls == clsDelete && len(live) == 0 {
			cls = clsInsert
		}
		switch cls {
		case clsGet:
			k := pick()
			if readBack >= 0 {
				k, readBack = uint32(readBack), -1
			}
			st.ops = append(st.ops, op{clsGet, k})
		case clsUpdate:
			st.ops = append(st.ops, op{clsUpdate, pick()})
		case clsInsert:
			id := uint64(s.keys) + uint64(c)*freshSpan + uint64(len(st.keys)-len(shared))
			k := uint32(len(st.keys))
			st.keys = append(st.keys, workload.KeyName(id))
			st.keyID = append(st.keyID, uint32(id))
			live = append(live, k)
			st.ops = append(st.ops, op{clsInsert, k})
			readBack = int(k)
		case clsDelete:
			k := live[0]
			live = live[1:]
			st.ops = append(st.ops, op{clsDelete, k})
			readBack = int(k)
		}
	}
	st.genNs = time.Since(t0).Nanoseconds()
	return st
}

// sharedKeys renders the preloaded key names.
func sharedKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = workload.KeyName(uint64(i))
	}
	return keys
}

// Values describe themselves: a header naming the key, the writer and
// the writer's sequence number, then a body that repeats one word
// derived from the header. A GET result is well-formed iff every body
// word matches its header, so a torn or misdirected value is caught
// without the checker knowing what was written.
const valueHeader = 16

func bodyWord(key uint32, writer uint16, seq uint32) uint64 {
	x := uint64(key)<<32 | uint64(writer)<<16 ^ uint64(seq)*0x9E3779B97F4A7C15
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	return x ^ x>>29
}

// stampValue writes a value for (key, writer, seq) into buf in place.
func stampValue(buf []byte, key uint32, writer uint16, seq uint32) {
	binary.LittleEndian.PutUint32(buf[0:], key)
	binary.LittleEndian.PutUint16(buf[4:], writer)
	binary.LittleEndian.PutUint16(buf[6:], 0xACE5)
	binary.LittleEndian.PutUint32(buf[8:], seq)
	binary.LittleEndian.PutUint32(buf[12:], 0)
	w := bodyWord(key, writer, seq)
	for i := valueHeader; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], w)
	}
}

// parseValue checks a value's form and returns its header fields.
func parseValue(v []byte) (key uint32, writer uint16, seq uint32, ok bool) {
	if len(v) != valueSize || binary.LittleEndian.Uint16(v[6:]) != 0xACE5 {
		return 0, 0, 0, false
	}
	key = binary.LittleEndian.Uint32(v[0:])
	writer = binary.LittleEndian.Uint16(v[4:])
	seq = binary.LittleEndian.Uint32(v[8:])
	w := bodyWord(key, writer, seq)
	for i := valueHeader; i+8 <= len(v); i += 8 {
		if binary.LittleEndian.Uint64(v[i:]) != w {
			return 0, 0, 0, false
		}
	}
	return key, writer, seq, true
}

// version is a key's last committed write: writer<<32 | seq, 0 when the
// key is absent.
type version uint64

func mkVersion(writer uint16, seq uint32) version { return version(uint64(writer)<<32 | uint64(seq)) }

// preloadWriter marks values written during set-up.
const preloadWriter = 0xFFFF
