package ftmodes

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/rdma"
)

// replicationGolden is the exact simnet outcome of goldenScript per
// replication mode: summed client verb counters, the block footprint
// and the virtual time the last client finished. The two modes share
// one substrate (internal/replica), so any drift in its verb stream —
// a moved read, a reordered batch, a changed byte count — shows here.
type replicationGolden struct {
	cas, reads, writes uint64
	totalBytes         uint64
	end                time.Duration
}

var replicationGoldens = map[string]replicationGolden{
	core.FTModeFusee: {cas: 3271, reads: 7124, writes: 3750, totalBytes: 983040, end: 17590933},
	core.FTModeSwarm: {cas: 1946, reads: 7682, writes: 5617, totalBytes: 524288, end: 16936561},
}

// goldenScript runs a fixed CRUD script with two concurrent clients
// per phase, each writing its own keys: insert, update and delete
// over a few hundred keys; update and insert while MN 1 crashes under
// the writers; FailMN(1); read everything back with fresh clients;
// then delete and update more, and race both clients on hot keys. It
// returns the summed counters and the finish time of the last client.
func goldenScript(t *testing.T, h *harness) replicationGolden {
	t.Helper()
	const n, clients = 300, 2
	var g replicationGolden
	finish := func(c ftmode.Client) {
		cas, reads, writes := c.Counters()
		g.cas += cas
		g.reads += reads
		g.writes += writes
		if now := h.pl.Engine().Now(); now > g.end {
			g.end = now
		}
	}
	phase := func(body func(c ftmode.Client, w int) error) {
		fns := make([]func(ftmode.Client), clients)
		for w := range fns {
			w := w
			fns[w] = func(c ftmode.Client) {
				if err := body(c, w); err != nil {
					t.Error(err)
				}
				finish(c)
			}
		}
		h.runClients(t, 60*time.Second, fns...)
	}
	expect := func(c ftmode.Client, i int, want []byte) error {
		got, err := c.Search(key(i))
		if want == nil {
			if !errors.Is(err, core.ErrNotFound) {
				return fmt.Errorf("search deleted %d: %v", i, err)
			}
			return nil
		}
		if err != nil || string(got) != string(want) {
			return fmt.Errorf("search %d: got %.12q, err %v", i, got, err)
		}
		return nil
	}
	// Key i belongs to client i%clients; keys divisible by 5 are
	// deleted, and every other key of each client is updated once.
	phase(func(c ftmode.Client, w int) error {
		for i := w; i < n; i += clients {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				return fmt.Errorf("insert %d: %v", i, err)
			}
		}
		for i := w; i < n; i += 2 * clients {
			if err := c.Update(key(i), val(i, 1)); err != nil {
				return fmt.Errorf("update %d: %v", i, err)
			}
		}
		for i := w; i < n; i += clients {
			if i%5 == 0 {
				if err := c.Delete(key(i)); err != nil {
					return fmt.Errorf("delete %d: %v", i, err)
				}
			}
		}
		return nil
	})
	// MN 1 crashes while the writers run. Only the platform learns of
	// it (the mode opened its MNs first, so MN 1 is node 1): clients
	// must discover the failure through their own verbs. At this
	// instant FUSEE first sees it on a bucket-pair read and SWARM on a
	// failed copy batch (then a view refresh); both then take the
	// failover-read and re-place paths. FailMN afterwards records the
	// failure the clients already noted.
	h.pl.Spawn(h.pl.AddComputeNode(), "crash", func(ctx rdma.Ctx) {
		ctx.Sleep(1481 * time.Microsecond)
		h.pl.Fail(rdma.NodeID(1))
	})
	phase(func(c ftmode.Client, w int) error {
		for i := w; i < n; i += clients {
			if err := c.Update(key(i), val(i, 2)); err != nil {
				return fmt.Errorf("update %d: %v", i, err)
			}
		}
		for i := n + w; i < n+100; i += clients {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				return fmt.Errorf("insert %d: %v", i, err)
			}
		}
		return nil
	})
	h.ft.FailMN(1)
	// Fresh clients (cold caches) read every key through the failure.
	phase(func(c ftmode.Client, w int) error {
		for i := 0; i < n+100; i++ {
			want := val(i, 2)
			if i >= n {
				want = val(i, 0)
			}
			if err := expect(c, i, want); err != nil {
				return err
			}
		}
		return nil
	})
	phase(func(c ftmode.Client, w int) error {
		for i := w; i < n; i += 3 * clients {
			if err := c.Delete(key(i)); err != nil {
				return fmt.Errorf("delete %d: %v", i, err)
			}
			if err := expect(c, i, nil); err != nil {
				return err
			}
			if err := c.Update(key(i+clients), val(i, 3)); err != nil {
				return fmt.Errorf("update %d: %v", i+clients, err)
			}
		}
		// Both clients race on a few fresh hot keys: insert races,
		// lost CASes and conflict backoff.
		for r := 0; r < 5; r++ {
			for i := n + 100; i < n+108; i++ {
				if err := c.Update(key(i), val(i, 10*w+r)); err != nil {
					return fmt.Errorf("contended update %d: %v", i, err)
				}
			}
		}
		return nil
	})
	g.totalBytes = h.ft.Usage().TotalBytes
	return g
}

// TestReplicationModesGolden pins the replication modes' exact simnet
// behaviour under a fixed CRUD + fail-stop script.
func TestReplicationModesGolden(t *testing.T) {
	for _, m := range []string{core.FTModeFusee, core.FTModeSwarm} {
		m := m
		t.Run(m, func(t *testing.T) {
			got := goldenScript(t, openMode(t, m))
			if want := replicationGoldens[m]; got != want {
				t.Errorf("golden drift:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}
