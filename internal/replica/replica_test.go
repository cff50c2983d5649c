package replica

import (
	"errors"
	"testing"

	"repro/internal/core"
)

func TestErrorsWrapCore(t *testing.T) {
	if !errors.Is(ErrNotFound, core.ErrNotFound) {
		t.Error("ErrNotFound does not wrap core.ErrNotFound")
	}
	if !errors.Is(ErrNoSpace, core.ErrNoSpace) {
		t.Error("ErrNoSpace does not wrap core.ErrNoSpace")
	}
	if !errors.Is(ErrRetriesExhausted, core.ErrRetriesExhausted) {
		t.Error("ErrRetriesExhausted does not wrap core.ErrRetriesExhausted")
	}
}

// TestHostedRegionInvertsReplicaMN checks that the MN hosting replica i
// of partition p finds that replica in its region i, for every
// partition and replica.
func TestHostedRegionInvertsReplicaMN(t *testing.T) {
	for _, g := range []struct{ mns, replicas int }{{1, 1}, {3, 3}, {5, 1}, {5, 3}, {7, 4}} {
		cfg := Config{NumMNs: g.mns, Replicas: g.replicas}
		for p := 0; p < g.mns; p++ {
			hosted := 0
			for m := 0; m < g.mns; m++ {
				if cfg.hostedRegion(m, p) >= 0 {
					hosted++
				}
			}
			if hosted != g.replicas {
				t.Errorf("%d MNs, %d replicas: partition %d hosted on %d MNs", g.mns, g.replicas, p, hosted)
			}
			for i := 0; i < g.replicas; i++ {
				if got := cfg.hostedRegion(cfg.ReplicaMN(p, i), p); got != i {
					t.Errorf("%d MNs, %d replicas: hostedRegion(replicaMN(%d,%d)) = %d", g.mns, g.replicas, p, i, got)
				}
			}
		}
	}
}

// TestConfigFromCoreBucketAligned checks the default core config's
// index split: the default 2 MB index over 3 replicas does not divide
// into whole buckets, so ConfigFromCore must round each partition down
// to a bucket multiple (an unaligned partition puts every slot word of
// partitions j>0 off the 8-byte CAS alignment).
func TestConfigFromCoreBucketAligned(t *testing.T) {
	cc := core.DefaultConfig()
	for _, sb := range []int{8, 16} {
		cfg := ConfigFromCore(cc, sb)
		if cfg.SlotBytes != sb {
			t.Fatalf("SlotBytes = %d, want %d", cfg.SlotBytes, sb)
		}
		if cfg.PartitionBytes == 0 || cfg.PartitionBytes%cfg.BucketBytes() != 0 {
			t.Errorf("slot %d B: partition %d B is not a whole number of %d B buckets", sb, cfg.PartitionBytes, cfg.BucketBytes())
		}
		if got := uint64(cfg.Replicas) * cfg.PartitionBytes; got > cc.Layout.IndexBytes {
			t.Errorf("slot %d B: %d partitions take %d B, index area is %d B", sb, cfg.Replicas, got, cc.Layout.IndexBytes)
		}
		for j := 0; j < cfg.Replicas; j++ {
			if off := cfg.regionOff(j); off%8 != 0 {
				t.Errorf("slot %d B: region %d starts at unaligned offset %d", sb, j, off)
			}
		}
	}
}
