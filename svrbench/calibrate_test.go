package main

import (
	"math"
	"testing"
)

func TestSpeedBetween(t *testing.T) {
	ref := referenceProbe[2]
	if got := speedBetween(2, ref, ref); got != (speed{1, 1}) {
		t.Errorf("probes at the reference cost: speed %+v, want 1/1", got)
	}
	// A host half as fast before and twice as slow after ran, on the
	// geometric mean, at reference speed; one twice as slow on both sides
	// doubles the factor.
	half := probeCost{ref.WallS / 2, ref.CPUS / 2}
	double := probeCost{ref.WallS * 2, ref.CPUS * 2}
	for _, c := range []struct {
		before, after probeCost
		want          float64
	}{
		{half, double, 1},
		{double, double, 2},
	} {
		got := speedBetween(2, c.before, c.after)
		if math.Abs(got.wall-c.want) > 1e-12 || math.Abs(got.cpu-c.want) > 1e-12 {
			t.Errorf("speedBetween(%+v, %+v) = %+v, want %v", c.before, c.after, got, c.want)
		}
	}
}

func TestProbeKernelDeterministic(t *testing.T) {
	a, b := probeKernel(60_000), probeKernel(60_000)
	if a != b {
		t.Fatal("probe kernel digest differs between identical runs")
	}
	if a == ([32]byte{}) {
		t.Fatal("probe kernel never hashed a flow buffer")
	}
}
