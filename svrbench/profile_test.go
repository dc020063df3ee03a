package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	const in = internalPrefix
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", in + "secure.(*MsgReader).Feed", in + "transport.(*Conn).deliver"}, "secure"},
		{[]string{"runtime.mallocgc", "github.com/svrlab/svrlab.Run", in + "experiment.Fig9"}, "experiment"},
		{[]string{in + "runner.Map[go.shape.struct { " + in + "experiment.down float64 }].func1"}, "runner"},
		{[]string{in + "wiretest/gencorpus.main"}, "wiretest"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime._GC"}, "gc"},
		{[]string{"runtime.futex", "runtime.mstart"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestCPUProfileDecodes checks the decoder against a profile written by
// runtime/pprof: every sampled nanosecond lands in some bucket.
func TestCPUProfileDecodes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	got := map[string]*cost{}
	if err := cpuByBucket(buf.Bytes(), got); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range got {
		total += c.CPUNs
	}
	if total < int64(100*time.Millisecond) {
		t.Fatalf("decoded %v of CPU from a 300 ms busy loop (x=%d); buckets %v", time.Duration(total), x, got)
	}
	if got["other"] == nil {
		t.Fatalf("busy loop outside the repository not charged to other: %v", got)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	// Field 2 (sample), length 5, but only two bytes follow.
	if _, err := decodeProfile([]byte{0x12, 0x05, 0x08, 0x01}); err == nil {
		t.Fatal("truncated message decoded without error")
	}
}
