package main

import (
	"fmt"
	"time"

	aceso "repro"
	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
)

// cluster is the surface the benchmark drives. *aceso.Cluster provides
// it for untraced runs; tracedCluster provides the same surface over a
// forwarding platform for traced runs.
type cluster interface {
	Start()
	SpawnClient(name string, fn func(*aceso.Client))
	RunUntil(cond func() bool) bool
	Advance(d time.Duration)
	Now() time.Duration
	FailMN(mn int)
	MNState(mn int) (failed, indexReady, blocksReady bool)
	RecoveryReports() []*aceso.RecoveryReport
	MNStats(mn int) aceso.ServerStats
	NumMNs() int
	Usage() aceso.Usage
	Reclaimed() int
	TransportStats() aceso.TransportStats
	Trace() []aceso.TraceEvent
	Internal() (*core.Cluster, rdma.Platform)
	Close()
}

// openCluster opens the shipped default configuration: on fabric
// through aceso.Open when rec is nil, else on simnet through
// core.OpenFT on a recording platform.
func openCluster(fabric string, rec *recorder) (cluster, error) {
	cfg := aceso.DefaultConfig()
	if rec == nil {
		return aceso.Open(cfg, aceso.WithFabric(fabric))
	}
	if fabric != aceso.FabricSim {
		return nil, fmt.Errorf("traced runs use simnet, not %q", fabric)
	}
	return openTraced(cfg, rec)
}

// tracedCluster mirrors the facade's virtual stepping of simnet for a
// cluster opened on a recordingPlatform, which aceso.Open cannot accept.
type tracedCluster struct {
	ft  ftmode.Cluster
	cl  *core.Cluster
	pl  *recordingPlatform
	sim *simnet.Platform
}

func openTraced(cfg core.Config, rec *recorder) (*tracedCluster, error) {
	t := &tracedCluster{sim: simnet.New(simnet.DefaultConfig())}
	rec.clock = t.sim.Engine().Now
	t.pl = &recordingPlatform{Platform: obs.Instrument(t.sim, nil), rec: rec}
	ft, err := core.OpenFT(cfg, t.pl)
	if err != nil {
		t.Close()
		return nil, err
	}
	t.ft, t.cl = ft, ft.(interface{ Core() *core.Cluster }).Core()
	return t, nil
}

func (t *tracedCluster) Start() {
	if err := t.ft.Start(); err != nil {
		panic(fmt.Sprintf("start: %v", err))
	}
}

func (t *tracedCluster) SpawnClient(name string, fn func(*aceso.Client)) {
	t.cl.SpawnClient(t.pl.AddComputeNode(), name, fn)
}

func (t *tracedCluster) RunUntil(cond func() bool) bool {
	eng := t.sim.Engine()
	limit := eng.Now() + time.Hour
	for !cond() && eng.Now() < limit {
		eng.Run(eng.Now() + time.Millisecond)
	}
	return cond()
}

func (t *tracedCluster) Advance(d time.Duration) { t.sim.Run(t.sim.Engine().Now() + d) }
func (t *tracedCluster) Now() time.Duration      { return t.sim.Engine().Now() }

func (t *tracedCluster) FailMN(mn int) { t.cl.FailMN(mn) }
func (t *tracedCluster) MNState(mn int) (bool, bool, bool) {
	return t.cl.MNState(mn)
}
func (t *tracedCluster) RecoveryReports() []*aceso.RecoveryReport { return t.cl.Master().ReportList() }
func (t *tracedCluster) MNStats(mn int) aceso.ServerStats         { return t.cl.Server(mn).Stats() }
func (t *tracedCluster) NumMNs() int                              { return t.cl.Cfg.Layout.NumMNs }
func (t *tracedCluster) Reclaimed() int                           { return t.cl.Reclaimed() }
func (t *tracedCluster) TransportStats() aceso.TransportStats     { return t.pl.TransportStats() }
func (t *tracedCluster) Trace() []aceso.TraceEvent                { return t.cl.Trace().Events() }
func (t *tracedCluster) Internal() (*core.Cluster, rdma.Platform) { return t.cl, t.pl }

func (t *tracedCluster) Usage() aceso.Usage { return t.ft.Usage() }

func (t *tracedCluster) Close() { t.sim.Shutdown() }
