// Command svrbench is svrlab's end-to-end benchmark. It regenerates one
// workload's artifacts through the public svrlab.Run API over and over for
// a fixed time, checks every rendered artifact, and prints the metrics of
// BENCHMARK.json. Each iteration is a fresh process, which is what a CLI
// user pays per artifact and gives set-up time and peak memory per
// iteration. Run it from the repository root through run.sh:
//
//	bash svrbench/run.sh --workload hubs-private --seed 42 --seconds 36 --trace 0
//
// A calibration probe runs between iterations, and the host times are
// reported scaled to the reference host's speed; see calibrate.go.
// --trace 1 alternates untraced iterations with traced ones, which profile
// CPU and allocations and charge them to layers; see README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runLimit keeps a whole run, its last iteration included, well inside the
// three minutes a run may take.
const runLimit = 150 * time.Second

// setupProbes is the number of set-up-only processes started before each
// iteration.
const setupProbes = 5

func main() {
	workloadName := flag.String("workload", "", "workload name: hubs-private, recroom-public or netem-disrupt")
	seed := flag.Int64("seed", 42, "workload seed")
	seconds := flag.Int("seconds", 36, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 adds traced iterations and reports per-layer metrics")
	iteration := flag.Bool("iteration", false, "internal: run one iteration and report it")
	workers := flag.Int("workers", min(2, runtime.NumCPU()), "sweep workers per iteration")
	traced := flag.Bool("traced", false, "internal: profile this iteration")
	setupOnly := flag.Bool("setup-only", false, "internal: exit once set up, without running the workload")
	record := flag.String("record-reference", "", "record stored references for the seed range a-b at one worker")
	calib := flag.Bool("calibrate", false, "internal: run the calibration probe and report its cost")
	lanes := flag.Int("lanes", 1, "internal: goroutines of the calibration probe")
	flag.Parse()

	if *calib {
		if err := calibrate(*lanes); err != nil {
			fmt.Fprintln(os.Stderr, "svrbench:", err)
			os.Exit(1)
		}
		return
	}

	if *record != "" {
		if err := recordReference(*record); err != nil {
			fmt.Fprintln(os.Stderr, "svrbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*workloadName)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "svrbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if *iteration {
		if *setupOnly {
			fmt.Println(readyLine)
			return
		}
		if err := iterate(w, *seed, *workers, *traced); err != nil {
			fmt.Fprintln(os.Stderr, "svrbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := bench(w, *seed, *workers, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "svrbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// sample is one iteration as the parent saw it.
type sample struct {
	rec     *record
	setupS  float64
	maxRSS  float64
	traced  bool
	failure error
	speed   speed // host speed around the iteration, from the probes
}

// bench measures a workload for the given time and prints the result.
func bench(w workload, seed int64, workers int, measure time.Duration, trace bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	exeDigest, err := fileDigest(exe)
	if err != nil {
		return err
	}
	chk, err := newChecker(w, seed, exeDigest)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	// Traced and untraced iterations alternate so both see the same host
	// conditions; a run always has at least one of each it needs.
	start := time.Now()
	lanes := w.lanes(workers)
	if _, ok := referenceProbe[lanes]; !ok {
		return fmt.Errorf("no reference probe cost for %d lanes", lanes)
	}
	prev, err := runProbe(ctx, exe, lanes)
	if err != nil {
		return err
	}
	var plain, prof []sample
	var setups, rawSetups []float64
	for i := 0; ; i++ {
		done := time.Since(start) >= measure && len(plain) > 0 && (!trace || len(prof) > 0)
		if done || ctx.Err() != nil {
			break
		}
		// Set-up takes milliseconds, so extra processes that stop once set
		// up give its median enough samples at no real cost.
		var setupRun []float64
		for range setupProbes {
			if s := spawn(ctx, exe, w, seed, workers, false, true); s.failure == nil {
				setupRun = append(setupRun, s.setupS)
			}
		}
		s := spawn(ctx, exe, w, seed, workers, trace && i%2 == 1, false)
		label := fmt.Sprintf("iteration %d", i+1)
		if s.traced {
			label += " (traced)"
		}
		chk.check(label, s.rec)
		if s.failure != nil {
			fmt.Fprintf(os.Stderr, "svrbench: %s: %v\n", label, s.failure)
		}
		if s.rec == nil {
			break // a process that died would likely die again at once
		}
		next, err := runProbe(ctx, exe, lanes)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			return err
		}
		s.speed, prev = speedBetween(lanes, prev, next), next
		fmt.Printf("%s: wall %.3f s, cpu %.3f s, host speed factor %.3f/%.3f, scaled wall %.3f s, cpu %.3f s, set-up %.4f s, %d GC cycles, peak RSS %.1f MB\n",
			label, s.rec.WallS, s.rec.CPUS, s.speed.wall, s.speed.cpu, calWallS(s), calCPUS(s), s.setupS, s.rec.GCCycles, s.maxRSS/1e6)
		if s.traced {
			prof = append(prof, s)
		} else {
			plain = append(plain, s)
			setupRun = append(setupRun, s.setupS)
		}
		// Set-up times are scaled like the iteration they precede.
		for _, x := range setupRun {
			rawSetups = append(rawSetups, x)
			setups = append(setups, x/s.speed.wall)
		}
	}

	fmt.Printf("workload %s, seed %d, %d workers: %d untraced and %d traced iterations\n",
		w.name, seed, workers, len(plain), len(prof))
	for _, p := range chk.problems {
		fmt.Println("FAIL", p)
	}
	failFrac := float64(chk.failed) / float64(max(chk.attempted, 1))
	fmt.Printf("%-28s %14.4f %s\n", "fail_frac", failFrac, "ratio")
	fmt.Printf("%-28s %14.4f %s\n", "unscaled wall_s", median(column(plain, wallS)), "s")
	fmt.Printf("%-28s %14.4f %s\n", "unscaled cpu_s", median(column(plain, cpuS)), "s")
	fmt.Printf("%-28s %14.4f %s\n", "unscaled setup_s", median(rawSetups), "s")
	e2e := endToEnd(plain, setups)
	printMetrics(e2e)
	out := e2e
	if trace {
		out = perLayer(prof, median(column(plain, calWallS)))
		printShares(prof)
		printMetrics(out)
	}
	correct := chk.failed == 0 && chk.attempted > 0
	if _, seen := chk.find("earlier run"); correct && !seen {
		first, _ := chk.find("first iteration")
		if err := storeObserved(w.name, seed, exeDigest, first); err != nil {
			fmt.Fprintln(os.Stderr, "svrbench: keep observation:", err)
		}
	}
	b, err := json.Marshal(result{Correct: correct, Attempted: chk.attempted, Failed: chk.failed, Metrics: out.json()})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// spawn runs one iteration process. Set-up time runs from starting the
// process to reading the line it prints just before its first svrlab.Run.
func spawn(ctx context.Context, exe string, w workload, seed int64, workers int, traced, setupOnly bool) sample {
	s := sample{traced: traced}
	cmd := exec.CommandContext(ctx, exe, "--iteration", "--workload", w.name,
		"--seed", strconv.FormatInt(seed, 10), "--workers", strconv.Itoa(workers),
		"--traced="+strconv.FormatBool(traced), "--setup-only="+strconv.FormatBool(setupOnly))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		s.failure = err
		return s
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		s.failure = err
		return s
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var last string
	for sc.Scan() {
		line := sc.Text()
		if line == readyLine && s.setupS == 0 {
			s.setupS = time.Since(start).Seconds()
		}
		last = line
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	switch {
	case waitErr != nil:
		s.failure = waitErr
	case scanErr != nil:
		s.failure = scanErr
	case s.setupS == 0:
		s.failure = errors.New("iteration never reported ready")
	case setupOnly:
		// Set-up time is all a probe reports.
	default:
		var rec record
		if err := json.Unmarshal([]byte(last), &rec); err != nil {
			s.failure = fmt.Errorf("iteration record: %w", err)
			break
		}
		s.rec = &rec
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.maxRSS = float64(ru.Maxrss) * 1024
		}
	}
	return s
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

type metricList []metric

func (l *metricList) add(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) { // a zero denominator
		value = 0
	}
	*l = append(*l, metric{name, value, unit})
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (l metricList) json() map[string]jsonMetric {
	m := make(map[string]jsonMetric, len(l))
	for _, x := range l {
		m[x.name] = jsonMetric{x.value, x.unit}
	}
	return m
}

func printMetrics(l metricList) {
	for _, x := range l {
		fmt.Printf("%-28s %14.4f %s\n", x.name, x.value, x.unit)
	}
}

// Each end-to-end metric is the median over the run's untraced iterations,
// except peak RSS. Host times are scaled to the reference host's speed.
func wallS(s sample) float64        { return s.rec.WallS }
func cpuS(s sample) float64         { return s.rec.CPUS }
func calWallS(s sample) float64     { return s.rec.WallS / s.speed.wall }
func calCPUS(s sample) float64      { return s.rec.CPUS / s.speed.cpu }
func allocBytes(s sample) float64   { return float64(s.rec.AllocBytes) }
func allocObjects(s sample) float64 { return float64(s.rec.AllocObjects) }
func gcCycles(s sample) float64     { return float64(s.rec.GCCycles) }
func maxRSS(s sample) float64       { return s.maxRSS }
func calPktsPerS(s sample) float64 {
	return float64(s.rec.Counters["netsim.packets.delivered"]) / calWallS(s)
}

func endToEnd(plain []sample, setups []float64) metricList {
	var l metricList
	l.add("cal_wall_s", median(column(plain, calWallS)), "s")
	l.add("cal_cpu_s", median(column(plain, calCPUS)), "s")
	l.add("alloc_bytes", median(column(plain, allocBytes)), "bytes")
	l.add("alloc_objects", median(column(plain, allocObjects)), "count")
	l.add("gc_cycles", median(column(plain, gcCycles)), "count")
	// An iteration's peak RSS sits on a floor set by the live heap, with
	// excursions of up to a third above it when the collector runs late;
	// about half the iterations have one. The floor is what a change to the
	// program's memory moves; a median swings with how many iterations of
	// the run had an excursion.
	l.add("max_rss_bytes", lowest(column(plain, maxRSS)), "bytes")
	l.add("cal_pkts_per_s", median(column(plain, calPktsPerS)), "1/s")
	l.add("setup_s", median(setups), "s")
	return l
}

// perLayer reports the traced iterations' mean layer charges; the counters
// are identical in every iteration, which the checker enforces.
func perLayer(prof []sample, plainWall float64) metricList {
	var l metricList
	per := layerMeans(prof)
	for _, name := range layers {
		c := per[name]
		l.add(name+".cpu_s", float64(c.CPUNs)/1e9, "s")
		l.add(name+".alloc_bytes", float64(c.AllocBytes), "bytes")
	}
	l.add("gc.cpu_s", float64(per["gc"].CPUNs)/1e9, "s")

	var ctr map[string]int64
	if len(prof) > 0 {
		ctr = prof[0].rec.Counters
	}
	for _, c := range []struct{ metric, counter string }{
		{"netsim.packets_delivered", "netsim.packets.delivered"},
		{"transport.retransmits", "transport.retransmits"},
		{"transport.rto_backoffs", "transport.rto_backoffs"},
		{"transport.conns_dialed", "transport.conns_dialed"},
		{"secure.records_recv", "secure.records_recv"},
		{"secure.app_bytes_recv", "secure.app_bytes_recv"},
		{"device.samples", "device.samples"},
		{"runner.cells", "runner.cells"},
	} {
		l.add(c.metric, float64(ctr[c.counter]), "count")
	}
	f := func(name string) float64 { return float64(ctr[name]) }
	l.add("netsim.drop_frac", f(dropCounter)/f("netsim.packets.sent"), "ratio")
	l.add("netsim.cpu_ns_per_pkt", float64(per["netsim"].CPUNs+per["packet"].CPUNs)/f("netsim.packets.delivered"), "ns")
	l.add("secure.cpu_ns_per_record", float64(per["secure"].CPUNs)/f("secure.records_recv"), "ns")
	l.add("stream.alloc_per_app_byte", float64(per["transport"].AllocBytes+per["secure"].AllocBytes)/f("secure.app_bytes_recv"), "B/B")
	l.add("trace.overhead_frac", median(column(prof, calWallS))/plainWall-1, "ratio")
	return l
}

// layerMeans averages each bucket's charge over the traced iterations.
func layerMeans(prof []sample) map[string]cost {
	mean := map[string]cost{}
	n := int64(len(prof))
	for _, s := range prof {
		for bucket, c := range s.rec.Layers {
			m := mean[bucket]
			m.CPUNs += c.CPUNs / n
			m.AllocBytes += c.AllocBytes / n
			m.AllocObjects += c.AllocObjects / n
			mean[bucket] = m
		}
	}
	return mean
}

// printShares prints each bucket's share of the profiled CPU time and of
// the sampled allocated bytes; the rows add up to the profiled totals.
func printShares(prof []sample) {
	if len(prof) == 0 {
		return
	}
	per := layerMeans(prof)
	var total cost
	for _, c := range per {
		total.CPUNs += c.CPUNs
		total.AllocBytes += c.AllocBytes
	}
	names := sortedKeys(per)
	sort.SliceStable(names, func(i, j int) bool { return per[names[i]].CPUNs > per[names[j]].CPUNs })
	fmt.Printf("layer shares, mean of %d traced iterations: %.3f CPU s profiled, %.1f MB allocations sampled, %.1f MB counted by the runtime\n",
		len(prof), float64(total.CPUNs)/1e9, float64(total.AllocBytes)/1e6, median(column(prof, allocBytes))/1e6)
	fmt.Printf("%-12s %10s %7s %12s %7s %12s\n", "layer", "cpu_s", "cpu%", "alloc_MB", "alloc%", "alloc_objs")
	for _, name := range names {
		c := per[name]
		fmt.Printf("%-12s %10.3f %6.1f%% %12.1f %6.1f%% %12d\n", name,
			float64(c.CPUNs)/1e9, pct(c.CPUNs, total.CPUNs),
			float64(c.AllocBytes)/1e6, pct(c.AllocBytes, total.AllocBytes), c.AllocObjects)
	}
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func column(set []sample, f func(sample) float64) []float64 {
	var out []float64
	for _, s := range set {
		out = append(out, f(s))
	}
	return out
}

func lowest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

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

// recordReference regenerates every workload at one worker for each seed
// in the range "a-b" and stores the observations in reference.json.
func recordReference(span string) error {
	lo, hi, ok := strings.Cut(span, "-")
	if !ok {
		hi = lo
	}
	first, err1 := strconv.ParseInt(lo, 10, 64)
	last, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || last < first {
		return fmt.Errorf("bad seed range %q", span)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	add := map[string]map[string]observation{}
	for _, w := range workloads {
		add[w.name] = map[string]observation{}
		for seed := first; seed <= last; seed++ {
			s := spawn(context.Background(), exe, w, seed, 1, false, false)
			if s.failure != nil || len(s.rec.Errors) > 0 {
				return fmt.Errorf("%s seed %d: %v %v", w.name, seed, s.failure, s.rec)
			}
			add[w.name][strconv.FormatInt(seed, 10)] = s.rec.Obs
			fmt.Fprintf(os.Stderr, "recorded %s seed %d\n", w.name, seed)
		}
	}
	return writeReference(add)
}
