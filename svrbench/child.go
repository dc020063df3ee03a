package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"github.com/svrlab/svrlab"
)

// memProfileRate is the allocation sampling interval of a traced
// iteration: fine enough that every layer allocating more than a few MB
// per iteration is sampled hundreds of times.
const memProfileRate = 32 << 10

// readyLine is printed by an iteration process just before its first
// svrlab.Run call; the parent's set-up time ends when it reads the line.
const readyLine = "ready"

// record is what one iteration process reports on its last stdout line.
type record struct {
	WallS        float64           `json:"wall_s"`
	CPUS         float64           `json:"cpu_s"`
	AllocBytes   uint64            `json:"alloc_bytes"`
	AllocObjects uint64            `json:"alloc_objects"`
	GCCycles     uint64            `json:"gc_cycles"`
	Obs          observation       `json:"obs"`
	Errors       map[string]string `json:"errors,omitempty"` // artifact id -> panic
	Counters     map[string]int64  `json:"counters"`
	Layers       map[string]*cost  `json:"layers,omitempty"` // traced only
}

// observation is the deterministic output of one iteration: the SHA-256 of
// every rendered artifact and of the stable metrics snapshot.
type observation struct {
	Digests map[string]string `json:"digests"`
	Metrics string            `json:"metrics_sha256"`
}

// reportedCounters are copied from the metrics registry into every record.
var reportedCounters = []string{
	"netsim.packets.delivered", "netsim.packets.sent", "transport.retransmits",
	"transport.rto_backoffs", "transport.conns_dialed", "secure.records_recv",
	"secure.app_bytes_recv", "device.samples", "runner.cells",
}

// dropCounter is the sum of every netsim.drop.* counter in a record.
const dropCounter = "netsim.dropped"

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles",
}

type point struct {
	wall    time.Time
	cpu     time.Duration
	runtime []metrics.Sample
}

func now() point {
	p := point{runtime: make([]metrics.Sample, len(runtimeSamples))}
	for i, name := range runtimeSamples {
		p.runtime[i].Name = name
	}
	metrics.Read(p.runtime)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	p.wall = time.Now()
	return p
}

func (p point) uint(i int) uint64 { return p.runtime[i].Value.Uint64() }

// iterate regenerates the workload's artifacts once and writes a record
// to stdout. traced adds the CPU and allocation profiles.
func iterate(w workload, seed int64, workers int, traced bool) error {
	reg := svrlab.NewMetricsRegistry()
	var cpuProf bytes.Buffer
	var memBefore map[[32]uintptr]runtime.MemProfileRecord
	if traced {
		runtime.MemProfileRate = memProfileRate
		runtime.GC()
		memBefore = memRecords()
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return err
		}
	}
	fmt.Println(readyLine)

	start := now()
	texts := make([]string, len(w.artifacts))
	errs := map[string]string{}
	for i, a := range w.artifacts {
		opts := a.opts
		opts.Seed, opts.Workers, opts.Metrics = seed, workers, reg
		var err error
		if texts[i], err = render(a.id, opts); err != nil {
			errs[a.id] = err.Error()
		}
	}
	end := now()

	rec := record{
		WallS:        end.wall.Sub(start.wall).Seconds(),
		CPUS:         (end.cpu - start.cpu).Seconds(),
		AllocBytes:   end.uint(0) - start.uint(0),
		AllocObjects: end.uint(1) - start.uint(1),
		GCCycles:     end.uint(2) - start.uint(2),
		Errors:       errs,
		Counters:     map[string]int64{},
		Obs:          observation{Digests: map[string]string{}},
	}
	if traced {
		pprof.StopCPUProfile()
		runtime.GC()
		rec.Layers = map[string]*cost{}
		allocByBucket(memBefore, memRecords(), memProfileRate, rec.Layers)
		if err := cpuByBucket(cpuProf.Bytes(), rec.Layers); err != nil {
			return err
		}
	}
	for i, a := range w.artifacts {
		if _, failed := errs[a.id]; !failed {
			rec.Obs.Digests[a.id] = digest(texts[i])
		}
	}
	snap := reg.Snapshot().Stable()
	rec.Obs.Metrics = digest(snap.String())
	for _, name := range reportedCounters {
		rec.Counters[name] = snap.Counter(name)
	}
	for _, e := range snap.Entries {
		if strings.HasPrefix(e.Name, "netsim.drop.") {
			rec.Counters[dropCounter] += e.Value
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rec)
}

// render runs one artifact. A panic on the calling goroutine, such as a
// failed conservation audit in a single-lab experiment, becomes an error;
// a panic on a sweep worker ends the process, and the parent counts the
// whole iteration as failed.
func render(id string, opts svrlab.Options) (text string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	res, err := svrlab.Run(id, opts)
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
