package simtime

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// refSched is the differential-fuzz reference: a deliberately naive
// scheduler that dispatches by linear scan over (at, seq). It shares no
// code with the wheel, so any ordering bug in either implementation shows
// up as a log divergence.
type refSched struct {
	now    time.Duration
	seq    uint64
	events []*refEvent
}

type refEvent struct {
	at   time.Duration
	seq  uint64
	fn   func()
	dead bool
}

func (r *refSched) schedule(t time.Duration, fn func()) *refEvent {
	if t < r.now {
		panic("refSched: past")
	}
	e := &refEvent{at: t, seq: r.seq, fn: fn}
	r.seq++
	r.events = append(r.events, e)
	return e
}

func (r *refSched) cancel(e *refEvent) {
	if e == nil || e.dead {
		return
	}
	e.dead = true
	for i, x := range r.events {
		if x == e {
			r.events = append(r.events[:i], r.events[i+1:]...)
			break
		}
	}
}

func (r *refSched) findMin() *refEvent {
	var best *refEvent
	for _, e := range r.events {
		if best == nil || e.at < best.at || (e.at == best.at && e.seq < best.seq) {
			best = e
		}
	}
	return best
}

func (r *refSched) runUntil(t time.Duration) {
	for {
		e := r.findMin()
		if e == nil || e.at > t {
			break
		}
		r.cancel(e) // remove (dead flag is irrelevant once dispatched)
		r.now = e.at
		e.fn()
	}
	if r.now < t {
		r.now = t
	}
}

func (r *refSched) run() {
	for {
		e := r.findMin()
		if e == nil {
			break
		}
		r.cancel(e)
		r.now = e.at
		e.fn()
	}
}

// schedOp is one decoded fuzz-program instruction.
type schedOp struct {
	kind  byte          // 0=At 1=Post 2=Cancel 3=RunUntil 4=At-with-child
	delta time.Duration // relative offset for schedules / run horizon
	arg   byte          // cancel-target selector / child-delay seed
}

// decodeProgram turns raw fuzz bytes into ops. Deltas use an
// exponent+mantissa encoding so programs reach every wheel level, up to
// level 10 at ticks >= 2^60: delta = mantissa << exp, exp in [0, 64),
// including mantissa 0 for exact same-tick collisions. A delta that wraps
// past int64 becomes math.MaxInt64.
func decodeProgram(data []byte) []schedOp {
	var ops []schedOp
	for len(data) >= 4 && len(ops) < 256 {
		exp := uint(data[1]) % 64
		delta := time.Duration(uint64(data[2]) << exp)
		if delta < 0 || uint64(delta)>>exp != uint64(data[2]) {
			delta = math.MaxInt64
		}
		ops = append(ops, schedOp{kind: data[0] % 5, delta: delta, arg: data[3]})
		data = data[4:]
	}
	return ops
}

// runProgram executes ops against either the wheel scheduler or the
// reference, returning the dispatch log as "time:id" strings plus the
// final clock. Event ids are assigned in schedule order, so identical logs
// mean identical (at, seq) dispatch order.
func runProgram(ops []schedOp, useWheel bool) (log []string, final time.Duration) {
	var (
		w       *Scheduler
		r       *refSched
		nextID  int
		handles []*Event    // cancellable wheel events, by schedule order
		rhandle []*refEvent // same for the reference
	)
	if useWheel {
		w = NewScheduler()
	} else {
		r = &refSched{}
	}
	now := func() time.Duration {
		if useWheel {
			return w.Now()
		}
		return r.now
	}
	// clampT saturates virtual time at math.MaxInt64 instead of wrapping,
	// so both implementations see in-range, identical target times.
	clampT := func(d time.Duration) time.Duration {
		t := now() + d
		if t < now() {
			t = math.MaxInt64
		}
		return t
	}
	var schedule func(t time.Duration, child bool, childSeed byte) int
	schedule = func(t time.Duration, child bool, childSeed byte) int {
		id := nextID
		nextID++
		fn := func() {
			log = append(log, fmt.Sprintf("%d:%d", now(), id))
			if child {
				// Deterministic follow-on schedule, exercising
				// schedule-during-dispatch in both implementations.
				d := time.Duration(uint64(childSeed) << (uint(id) % 20))
				schedule(clampT(d), false, 0)
			}
		}
		if useWheel {
			handles = append(handles, w.At(t, fn))
		} else {
			rhandle = append(rhandle, r.schedule(t, fn))
		}
		return id
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			schedule(clampT(op.delta), false, 0)
		case 1:
			id := nextID
			nextID++
			fn := func() { log = append(log, fmt.Sprintf("%d:%d", now(), id)) }
			t := clampT(op.delta)
			if useWheel {
				w.Post(t, fn)
				handles = append(handles, nil) // keep index spaces aligned
			} else {
				r.schedule(t, fn)
				rhandle = append(rhandle, nil)
			}
		case 2:
			if n := len(handles) + len(rhandle); n > 0 {
				if useWheel {
					w.Cancel(handles[int(op.arg)%len(handles)])
				} else {
					r.cancel(rhandle[int(op.arg)%len(rhandle)])
				}
			}
		case 3:
			if useWheel {
				w.RunUntil(clampT(op.delta))
			} else {
				r.runUntil(clampT(op.delta))
			}
		case 4:
			schedule(clampT(op.delta), true, op.arg)
		}
	}
	if useWheel {
		w.Run()
		return log, w.Now()
	}
	r.run()
	return log, r.now
}

// FuzzSchedulerOrder is the differential fuzz target: arbitrary
// schedule/post/cancel/run-until programs must dispatch in the identical
// (at, seq) order on the hierarchical wheel and on the naive reference.
func FuzzSchedulerOrder(f *testing.F) {
	// Same-tick FIFO collisions (mantissa 0 → delta 0).
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Mixed near/far schedules with a run-until between them.
	f.Add([]byte{0, 10, 7, 0, 1, 20, 3, 0, 3, 15, 1, 0, 0, 45, 9, 0})
	// Cancel-heavy churn.
	f.Add([]byte{0, 12, 5, 0, 0, 12, 6, 0, 2, 0, 0, 1, 0, 30, 2, 0, 2, 0, 0, 0})
	// Far-future traffic plus dispatch-time child schedules.
	f.Add([]byte{4, 48, 200, 9, 0, 49, 255, 0, 3, 49, 255, 0, 4, 5, 3, 17})
	// Same far tick across a cursor crossing 2^42: file an event at tick
	// 255<<35 from t=0, dispatch at 200<<35 so the cursor crosses the
	// boundary, then schedule the same tick again from the moved cursor —
	// the first event (lower seq) must still win.
	f.Add([]byte{0, 35, 200, 0, 0, 35, 255, 0, 3, 35, 200, 0, 0, 35, 55, 0})
	// Level 10: ticks 2^60, 3<<61 and 255<<62 (saturating to MaxInt64),
	// a cancel of the MaxInt64 event, a run-until to 2^61, then repeated
	// schedules that saturate at MaxInt64 and must dispatch FIFO.
	f.Add([]byte{0, 60, 1, 0, 4, 61, 3, 5, 0, 62, 255, 0, 2, 0, 0, 2,
		3, 61, 1, 0, 1, 63, 255, 0, 0, 63, 2, 0, 0, 50, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeProgram(data)
		wheelLog, wheelNow := runProgram(ops, true)
		refLog, refNow := runProgram(ops, false)
		if len(wheelLog) != len(refLog) {
			t.Fatalf("dispatch count diverged: wheel %d, ref %d", len(wheelLog), len(refLog))
		}
		for i := range wheelLog {
			if wheelLog[i] != refLog[i] {
				t.Fatalf("dispatch %d diverged: wheel %q, ref %q", i, wheelLog[i], refLog[i])
			}
		}
		if wheelNow != refNow {
			t.Fatalf("final clock diverged: wheel %v, ref %v", wheelNow, refNow)
		}
	})
}
