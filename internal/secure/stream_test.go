package secure_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/audit"
	"github.com/svrlab/svrlab/internal/disrupt"
	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/secure"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/transport"
	"github.com/svrlab/svrlab/internal/wiretest"
)

// streamSpec is one run of the differential stream harness: framed
// messages in both directions between a WiFi client and a datacenter
// server, through the real fabric, TCP, TLS and MsgReader, with netem
// impairments on the client's access link.
type streamSpec struct {
	seed     int64
	sizes    []int         // body sizes, one message each, sent in both directions
	big      int           // one extra server→client message of this size (0 = none)
	maxChunk int           // MsgReader.Feed receives random chunks of 1..maxChunk bytes
	loss     float64       // TCP loss on the client's downlink and uplink
	rateBps  float64       // TCP shaping on the client's downlink (0 = none); low rates tail-drop
	delay    time.Duration // TCP delay stage on the client's uplink, mid-transfer (0 = none)
}

type framedMsg struct {
	kind byte
	body []byte
}

// randomSizes draws n body sizes between 0 B and 64 KiB, weighted toward
// the small control messages the platforms send most.
func randomSizes(rng *rand.Rand, n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		switch r := rng.Intn(10); {
		case r < 5:
			sizes[i] = rng.Intn(257)
		case r < 8:
			sizes[i] = rng.Intn(9 << 10)
		default:
			sizes[i] = rng.Intn(64<<10 + 1)
		}
	}
	return sizes
}

// plan builds the message sequence one side sends: random kinds and
// random body bytes, so a misplaced or corrupted byte cannot go unseen.
func plan(rng *rand.Rand, sizes []int) []framedMsg {
	out := make([]framedMsg, len(sizes))
	for i, n := range sizes {
		body := make([]byte, n)
		rng.Read(body)
		out[i] = framedMsg{kind: byte(1 + rng.Intn(4)), body: body}
	}
	return out
}

// receiver reassembles messages from a session's borrowed OnData views,
// re-chunked at random, and keeps copies of what MsgReader dispatches.
type receiver struct {
	got    []framedMsg
	reader secure.MsgReader
}

func newReceiver(sess *secure.Session, rng *rand.Rand, maxChunk int) *receiver {
	r := &receiver{}
	r.reader.OnMsg = func(kind byte, body []byte) {
		r.got = append(r.got, framedMsg{kind, append([]byte(nil), body...)})
	}
	sess.OnData = func(b []byte) {
		for len(b) > 0 {
			n := 1 + rng.Intn(maxChunk)
			if n > len(b) {
				n = len(b)
			}
			r.reader.Feed(b[:n])
			b = b[n:]
		}
	}
	return r
}

// sendPlan schedules msgs on sess from the current virtual time in bursts:
// most go back to back, the rest after a random gap of up to 100 ms, so
// sends land before the handshake finishes, into a send queue the window
// is still draining, and into an idle one.
func sendPlan(s *simtime.Scheduler, rng *rand.Rand, sess *secure.Session, msgs []framedMsg) {
	at := s.Now()
	for _, m := range msgs {
		m := m
		if rng.Intn(10) >= 8 {
			at += time.Duration(rng.Intn(100_000)) * time.Microsecond
		}
		s.At(at, func() { sess.SendMsg(m.kind, m.body) })
	}
}

func diffMsgs(dir string, want, got []framedMsg) error {
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i].kind != got[i].kind || !bytes.Equal(want[i].body, got[i].body) {
			return fmt.Errorf("%s: message %d differs: sent kind %d, %d B; delivered kind %d, %d B",
				dir, i, want[i].kind, len(want[i].body), got[i].kind, len(got[i].body))
		}
	}
	if len(want) != len(got) {
		return fmt.Errorf("%s: sent %d messages, delivered %d", dir, len(want), len(got))
	}
	return nil
}

// newStreamLab builds the harness fabric: a WiFi client host a on the east
// coast and a datacenter server host b on the west coast, one backbone link
// apart, each with a transport stack.
func newStreamLab(seed int64) (*simtime.Scheduler, *netsim.Network, *netsim.Host, *netsim.Host, *transport.Stack, *transport.Stack) {
	s := simtime.NewScheduler()
	n := netsim.New(s, seed)
	east := n.AddSite("east", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	west := n.AddSite("west", geo.SanJose, packet.MustParseAddr("10.2.0.1"))
	n.Connect(east, west)
	a := n.AddHost("a", east, packet.MustParseAddr("10.0.0.2"), netsim.WiFiAccess())
	b := n.AddHost("b", west, packet.MustParseAddr("10.2.0.2"), netsim.DatacenterAccess())
	return s, n, a, b, transport.NewStack(n, a), transport.NewStack(n, b)
}

// runStream executes one harness run and returns the lab's metrics and
// the first mismatch between the sent and delivered (kind, body)
// sequences, or a failed conservation audit.
func runStream(sp streamSpec) (obs.Snapshot, error) {
	s, n, a, b, sa, sb := newStreamLab(sp.seed)

	rng := rand.New(rand.NewSource(sp.seed))
	up := plan(rng, sp.sizes)
	down := plan(rng, sp.sizes)
	if sp.big > 0 {
		at := rng.Intn(len(down) + 1)
		big := plan(rng, []int{sp.big})
		down = append(down[:at], append(big, down[at:]...)...)
	}

	var atServer *receiver
	sb.ListenTCP(443, func(c *transport.Conn) {
		srv := secure.Server(c)
		atServer = newReceiver(srv, rng, sp.maxChunk)
		sendPlan(s, rng, srv, down)
	})
	cli := secure.Client(sa.DialTCP(packet.Endpoint{Addr: b.Addr, Port: 443}))
	atClient := newReceiver(cli, rng, sp.maxChunk)
	sendPlan(s, rng, cli, up)

	if sp.loss > 0 || sp.rateBps > 0 {
		a.DownNetem = &netsim.Netem{Loss: sp.loss, RateBps: sp.rateBps, Filter: netsim.FilterTCP}
	}
	var stages []disrupt.Stage
	if sp.loss > 0 {
		stages = append(stages, disrupt.Stage{Label: "loss", Loss: sp.loss, Filter: netsim.FilterTCP, Duration: time.Second})
	}
	if sp.delay > 0 {
		stages = append(stages, disrupt.Stage{Label: "delay", Delay: sp.delay, Loss: sp.loss, Filter: netsim.FilterTCP, Duration: 2 * time.Second})
	}
	if len(stages) > 0 {
		// Start once the handshake is done and data is flowing.
		(&disrupt.Schedule{Host: a, Dir: disrupt.Uplink, Stages: stages}).Run(s, 300*time.Millisecond)
	}

	s.RunUntil(time.Hour)

	snap := n.Metrics.Snapshot()
	if atServer == nil {
		return snap, fmt.Errorf("server never accepted the connection")
	}
	if err := diffMsgs("client→server", up, atServer.got); err != nil {
		return snap, err
	}
	if err := diffMsgs("server→client", down, atClient.got); err != nil {
		return snap, err
	}
	if rep := audit.Run(n); !rep.OK() {
		return snap, fmt.Errorf("%s", rep)
	}
	return snap, nil
}

// TestStreamPathDifferential drives random message sequences, including
// one of at least 1 MiB, through the stream path under each impairment on
// its own and all of them together, and requires every message to arrive
// intact and in order with the fabric's books balanced. Each impairment
// must show in the counters it drives, so a case cannot pass vacuously.
func TestStreamPathDifferential(t *testing.T) {
	cases := []struct {
		name string
		sp   streamSpec
		bite []string // counters the impairments must move
	}{
		{"clean", streamSpec{}, nil},
		{"loss", streamSpec{loss: 0.03}, []string{"netsim.drop.netem.loss.down", "netsim.drop.netem.loss.up", "transport.retransmits"}},
		{"queue-drops", streamSpec{rateBps: 2e6}, []string{"netsim.drop.netem.queue.down", "transport.retransmits"}},
		{"delay-stage", streamSpec{delay: 3 * time.Second}, []string{"transport.rto_backoffs"}},
		{"everything", streamSpec{loss: 0.02, rateBps: 2e6, delay: 2 * time.Second},
			[]string{"netsim.drop.netem.loss.down", "netsim.drop.netem.queue.down", "transport.rto_backoffs"}},
	}
	for i, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sp := c.sp
			sp.seed = int64(101 + i)
			rng := rand.New(rand.NewSource(sp.seed))
			sp.sizes = randomSizes(rng, 30)
			sp.big = 1<<20 + rng.Intn(64<<10)
			sp.maxChunk = 1 + rng.Intn(6000)
			snap, err := runStream(sp)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range c.bite {
				if snap.Counter(name) == 0 {
					t.Errorf("%s = 0: the impairment never bit", name)
				}
			}
		})
	}
}

// TestStreamPathSendQueueReuse sends bursts of small messages over a
// lossy, shaped path. Small messages keep the sender's send queue small,
// so it compacts (reuses its memory) while segments cut from it are still
// in flight; a fabric that delivered the sender's bytes instead of its own
// copy would hand the receiver overwritten data. A single run hits that
// window only sometimes, so the test runs a dozen seeds.
func TestStreamPathSendQueueReuse(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		sp := streamSpec{seed: seed, loss: 0.02, rateBps: 2e6, delay: 2 * time.Second}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			sp.sizes = append(sp.sizes, rng.Intn(2000))
		}
		sp.maxChunk = 1 + rng.Intn(6000)
		if _, err := runStream(sp); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// specFromBytes decodes a fuzz input into harness knobs, bounded so every
// input finishes quickly and no impairment can kill the connection.
func specFromBytes(data []byte) streamSpec {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	sp := streamSpec{
		seed:     int64(binary.BigEndian.Uint16([]byte{next(), next()})),
		maxChunk: 1 + int(next())*32,
	}
	flags := next()
	if flags&1 != 0 {
		sp.loss = float64(next()%9) / 100
	}
	if flags&2 != 0 {
		sp.rateBps = float64(4+next()%28) * 1e6
	}
	if flags&4 != 0 {
		sp.delay = time.Duration(1+next()%6) * 500 * time.Millisecond
	}
	if flags&8 != 0 {
		sp.big = 1<<20 + int(next())<<8
	}
	msgs := int(next() % 12)
	for i := 0; i < msgs; i++ {
		sp.sizes = append(sp.sizes, int(binary.BigEndian.Uint16([]byte{next(), next()})))
	}
	return sp
}

func checkStreamPath(t *testing.T, data []byte) {
	if _, err := runStream(specFromBytes(data)); err != nil {
		t.Fatal(err)
	}
}

// FuzzStreamPath runs the differential harness on fuzzer-chosen seeds,
// message sizes, Feed chunking and impairments.
func FuzzStreamPath(f *testing.F) {
	f.Fuzz(checkStreamPath)
}

func TestStreamPathCorpusReplay(t *testing.T) {
	wiretest.Replay(t, "FuzzStreamPath", checkStreamPath)
}

// TestSendMsgAllocatesPerSegmentOnly pins the stream path's allocation
// budget: once the buffers are warm, a 1 MiB SendMsg through the fabric
// into a MsgReader allocates a small constant number of objects — none per
// segment or ACK (the fabric copies each packet's headers into its pooled
// forwarding state, so transport builds them on the stack), none per
// record, and no copy of the message.
func TestSendMsgAllocatesPerSegmentOnly(t *testing.T) {
	s, n, _, b, sa, sb := newStreamLab(1)
	var srv *secure.Session
	sb.ListenTCP(443, func(c *transport.Conn) { srv = secure.Server(c) })
	cli := secure.Client(sa.DialTCP(packet.Endpoint{Addr: b.Addr, Port: 443}))
	got := 0
	reader := &secure.MsgReader{OnMsg: func(kind byte, body []byte) {
		if kind == secure.MsgResponse && len(body) == 1<<20 {
			got++
		}
	}}
	cli.OnData = reader.Feed
	s.Run()
	if srv == nil || !srv.Established() {
		t.Fatal("handshake did not complete")
	}
	body := make([]byte, 1<<20)
	transfer := func() {
		srv.SendMsg(secure.MsgResponse, body)
		s.Run()
	}
	for i := 0; i < 3; i++ {
		transfer()
	}
	const runs = 4
	sent := n.Conservation().Sent
	allocs := testing.AllocsPerRun(runs, transfer)
	// AllocsPerRun calls transfer once more than runs, as a warm-up.
	pkts := float64(n.Conservation().Sent-sent) / (runs + 1)
	if got != 3+runs+1 {
		t.Fatalf("delivered %d of %d 1 MiB messages", got, 3+runs+1)
	}
	const budget = 40
	if allocs > budget {
		t.Fatalf("1 MiB SendMsg allocates %.0f objects for %.0f packets, want at most %d in all", allocs, pkts, budget)
	}
	t.Logf("%.0f allocations for %.0f packets (257 records)", allocs, pkts)
}
