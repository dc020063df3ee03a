package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"sync"
)

// The host's speed drifts by 10-40% over minutes: other tenants share its
// cores, caches and memory bandwidth, and CPU time is stolen in bursts. A
// run of the workload alone cannot tell that drift from a change to the
// program. So a calibration probe, a fixed piece of work that depends on
// nothing in the repository, runs before the first iteration and after
// every iteration, in a fresh process like the iterations. Each iteration's
// times are scaled by how much slower or faster than on the reference host
// the probes on either side of it ran. A change to the program moves the
// iteration and not the probe, so it shows in full in the scaled times.

// probeEvents is the probe's size: about 0.35 s per lane on the reference
// host.
const probeEvents = 150_000

// referenceProbe is the probe's median cost on the reference host (2-vCPU
// Linux VM, go1.24.0) per number of lanes: the times the scaled metrics are
// expressed at.
var referenceProbe = map[int]probeCost{
	1: {WallS: 0.35, CPUS: 0.42},
	2: {WallS: 0.43, CPUS: 0.82},
}

// probeCost is what one probe process reports.
type probeCost struct {
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
}

// calibrate runs the probe on the given number of goroutines and writes
// its cost to stdout.
func calibrate(lanes int) error {
	start := now()
	var wg sync.WaitGroup
	sums := make([][32]byte, lanes)
	for i := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = probeKernel(probeEvents)
		}()
	}
	wg.Wait()
	end := now()
	for _, s := range sums[1:] {
		if s != sums[0] {
			return fmt.Errorf("calibration lanes disagree")
		}
	}
	return json.NewEncoder(os.Stdout).Encode(probeCost{
		WallS: end.wall.Sub(start.wall).Seconds(),
		CPUS:  (end.cpu - start.cpu).Seconds(),
	})
}

// probeEvent is one entry of the probe's event queue.
type probeEvent struct {
	at   int64
	flow uint32
	head []byte
}

// probeFlow accumulates the payloads of one flow.
type probeFlow struct {
	bytes, packets int64
	buf            []byte
}

// probeKernel does the kind of work the simulator does, with none of its
// code: it pops events from a binary heap, looks up per-flow state in a map,
// allocates and fills packet-sized buffers, appends them to per-flow
// buffers that are hashed and dropped once they pass 64 KiB, and schedules
// a follow-up event. It returns a digest of the final state, so the work
// cannot be optimised away and every lane can be checked against the others.
func probeKernel(events int) [32]byte {
	r := rand.New(rand.NewSource(1))
	var q []*probeEvent
	push := func(e *probeEvent) {
		q = append(q, e)
		for i := len(q) - 1; i > 0; {
			p := (i - 1) / 2
			if q[p].at <= q[i].at {
				break
			}
			q[p], q[i] = q[i], q[p]
			i = p
		}
	}
	pop := func() *probeEvent {
		top := q[0]
		last := len(q) - 1
		q[0] = q[last]
		q = q[:last]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < last && q[l].at < q[m].at {
				m = l
			}
			if l+1 < last && q[l+1].at < q[m].at {
				m = l + 1
			}
			if m == i {
				break
			}
			q[i], q[m] = q[m], q[i]
			i = m
		}
		return top
	}
	for range 4096 {
		push(&probeEvent{at: r.Int63n(1 << 20), flow: uint32(r.Intn(512))})
	}
	flows := map[uint32]*probeFlow{}
	var sum [32]byte
	for i := range events {
		e := pop()
		f := flows[e.flow]
		if f == nil {
			f = &probeFlow{}
			flows[e.flow] = f
		}
		size := 64 + r.Intn(1436)
		b := make([]byte, size)
		for j := 0; j < size; j += 64 {
			b[j] = byte(i + j)
		}
		f.buf = append(f.buf, b...)
		if len(f.buf) > 64<<10 {
			sum = sha256.Sum256(append(sum[:], f.buf[:4096]...))
			f.buf = nil
		}
		f.bytes += int64(size)
		f.packets++
		push(&probeEvent{at: e.at + r.Int63n(1<<12), flow: uint32(r.Intn(512)), head: b[:16]})
	}
	return sum
}

// runProbe starts one probe process and reads its cost.
func runProbe(ctx context.Context, exe string, lanes int) (probeCost, error) {
	var c probeCost
	cmd := exec.CommandContext(ctx, exe, "--calibrate", "--lanes", strconv.Itoa(lanes))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return c, fmt.Errorf("calibration probe: %w", err)
	}
	if err := json.Unmarshal(out, &c); err != nil {
		return c, fmt.Errorf("calibration probe: %w", err)
	}
	if c.WallS <= 0 || c.CPUS <= 0 {
		return c, fmt.Errorf("calibration probe: empty cost %+v", c)
	}
	return c, nil
}

// speed is how many times slower than the reference host the host ran
// between two probes: the geometric mean of their ratios to the reference.
type speed struct{ wall, cpu float64 }

func speedBetween(lanes int, before, after probeCost) speed {
	ref := referenceProbe[lanes]
	return speed{
		wall: math.Sqrt(before.WallS*after.WallS) / ref.WallS,
		cpu:  math.Sqrt(before.CPUS*after.CPUS) / ref.CPUS,
	}
}
