package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// The traced run charges every CPU sample and every sampled allocation to
// one bucket: the innermost frame of the stack that lies in a repository
// package internal/<layer>. Runtime helpers (mallocgc, memmove, growslice,
// GC assists) therefore count against the layer that called them. A stack
// with no repository frame is "gc" when it is the collector's background
// work and "other" otherwise, so the buckets always add up to the profiled
// total.

const internalPrefix = "github.com/svrlab/svrlab/internal/"

// layers are the buckets reported as per-layer metrics, in report order.
// Other repository packages (audit, world, stats, ...) still get their own
// rows in the share table.
var layers = []string{
	"simtime", "netsim", "packet", "transport", "secure", "rtpx", "platform",
	"avatar", "device", "capture", "disrupt", "obs", "runner", "experiment",
}

// gcFramePrefixes mark runtime functions that only the collector runs.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.sweepone", "runtime.(*gcWork)",
	"runtime.(*gcControllerState)", "runtime.greyobject", "runtime.wbBuf",
}

// bucketOf returns the bucket for a stack given leaf first.
func bucketOf(funcs []string) string {
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, f := range funcs {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(f, p) {
				return "gc"
			}
		}
	}
	return "other"
}

// cost is what one bucket was charged in one traced iteration.
type cost struct {
	CPUNs        int64 `json:"cpu_ns"`
	AllocBytes   int64 `json:"alloc_bytes"`
	AllocObjects int64 `json:"alloc_objects"`
}

// cpuByBucket decodes a gzipped pprof CPU profile and sums its sampled
// CPU nanoseconds per bucket.
func cpuByBucket(gz []byte, into map[string]*cost) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	col := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return errors.New("cpu profile: no cpu sample type")
	}
	funcName := make(map[uint64]string, len(p.funcs))
	for id, nameIdx := range p.funcs {
		funcName[id] = p.str(nameIdx)
	}
	var stack []string
	for _, s := range p.samples {
		if col >= len(s.values) {
			return errors.New("cpu profile: short sample")
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range p.locs[loc] {
				stack = append(stack, funcName[fn])
			}
		}
		charge(into, bucketOf(stack)).CPUNs += s.values[col]
	}
	return nil
}

func charge(m map[string]*cost, bucket string) *cost {
	c := m[bucket]
	if c == nil {
		c = &cost{}
		m[bucket] = c
	}
	return c
}

// memRecords snapshots the runtime's allocation profile keyed by stack.
// Records are only as fresh as the last completed GC cycle, so callers run
// runtime.GC first.
func memRecords() map[[32]uintptr]runtime.MemProfileRecord {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	// Stack0 keeps only the innermost 32 frames, so distinct deeper stacks
	// can share a key; their counts are summed.
	out := make(map[[32]uintptr]runtime.MemProfileRecord, len(recs))
	for _, r := range recs {
		sum := out[r.Stack0]
		sum.Stack0 = r.Stack0
		sum.AllocBytes += r.AllocBytes
		sum.AllocObjects += r.AllocObjects
		out[r.Stack0] = sum
	}
	return out
}

// allocByBucket charges the allocations sampled between two snapshots,
// scaled by the sampling rate as pprof scales them.
func allocByBucket(before, after map[[32]uintptr]runtime.MemProfileRecord, rate int, into map[string]*cost) {
	var stack []string
	for key, r := range after {
		b := before[key]
		count, size := r.AllocObjects-b.AllocObjects, r.AllocBytes-b.AllocBytes
		if count <= 0 || size <= 0 {
			continue
		}
		scale := 1 / (1 - math.Exp(-float64(size)/float64(count)/float64(rate)))
		stack = stack[:0]
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		c := charge(into, bucketOf(stack))
		c.AllocBytes += int64(float64(size) * scale)
		c.AllocObjects += int64(float64(count) * scale)
	}
}

// profile is the subset of a pprof protocol buffer the attribution needs.
type profile struct {
	sampleTypes []int64 // string index of each sample value's type
	samples     []pbSample
	locs        map[uint64][]uint64 // location id -> function ids, leaf first
	funcs       map[uint64]int64    // function id -> string index of its name
	strs        []string
}

type pbSample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strs)) {
		return ""
	}
	return p.strs[i]
}

// decodeProfile reads the fields of profile.proto that runtime/pprof
// writes for a CPU profile: sample_type (1), sample (2), location (4),
// function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1:
			return eachField(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2:
			var s pbSample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return eachVarint(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protocol buffer")

// eachField walks a protocol buffer message. Varint fields pass their value
// in v; length-delimited fields pass their bytes in data; fixed-width
// fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated integer field that is either a single varint
// (data == nil) or a packed run of varints.
func eachVarint(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
