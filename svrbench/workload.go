package main

import "github.com/svrlab/svrlab"

// A workload is a fixed list of artifacts regenerated through svrlab.Run;
// the seed is the only input that varies between runs. Each one takes about
// 3.5 s of wall time on a 2-core host, so a run measures several iterations.
type workload struct {
	name      string
	artifacts []artifact
	// parallel is set when the artifacts fan cells out over the sweep
	// workers, so the calibration probe runs one lane per worker.
	parallel bool
}

// lanes is the number of goroutines the calibration probe runs: as many as
// the workload keeps busy.
func (w workload) lanes(workers int) int {
	if w.parallel {
		return workers
	}
	return 1
}

// artifact is one svrlab.Run call. Seed, Workers and Metrics are filled in
// per iteration.
type artifact struct {
	id   string
	opts svrlab.Options
}

// hubsUsers sizes the Figure 9 event. Each join downloads the 20 MB scene
// over TLS, so the stream path dominates at any size; the paper's 28-user
// point takes 37 s per iteration, too long for repeated measurement, while
// 5 users moves 113 MB of TLS application data in about 3.5 s.
const hubsUsers = 5

var workloads = []workload{
	// Stream-heavy: HTTPS avatar state plus one 20 MB scene download per
	// join, so transport and secure do most of the work.
	{"hubs-private", []artifact{
		{"fig9", svrlab.Options{Counts: []int{hubsUsers}, Repeats: 1}},
	}, false},
	// Packet-heavy control: UDP avatars, no asset downloads, nine cells at
	// the paper's user counts across the sweep workers. The stream path
	// carries well under 1 MB here.
	{"recroom-public", []artifact{
		{"fig7", svrlab.Options{Platform: svrlab.RecRoom, Repeats: 1}},
	}, true},
	// Loss recovery: netem queue and loss drops, RTO backoff, retransmits,
	// out-of-order reassembly and the disrupt shaper, which nothing else
	// touches. fig12 and fig13 are pinned byte for byte by
	// artifacts_seed42.txt at seed 42.
	{"netem-disrupt", []artifact{
		{"fig12", svrlab.Options{}},
		{"fig13", svrlab.Options{}},
		{"fig13tcp", svrlab.Options{}},
	}, false},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
