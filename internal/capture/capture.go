// Package capture is the lab's Wireshark: it records timestamped wire bytes
// at a host's access point (the paper taps the WiFi APs), decodes them into
// layers on demand, groups them into flows, and produces the per-interval
// throughput series that Figures 2, 3, 6, 12 and 13 are built from.
//
// Internally a Sniffer is an arena plus an index (DESIGN §4.11): wire bytes
// are appended into pooled fixed-size chunks, and per-record metadata —
// virtual timestamp, direction, arena position, and a compact flow key
// extracted from the header bytes at tap time — lives in parallel flat
// slices instead of a pointer-bearing record slice. Ingesting a packet is an
// arena copy plus a handful of column appends (amortized zero allocations),
// and analysis runs over the columns, decoding full packets only for the
// records a user-supplied Filter actually inspects — through a per-protocol
// scratch Packet filled by packet.DecodeInto, so repeated queries allocate
// nothing and never re-decode what the index already answers.
package capture

import (
	"sort"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/stats"
)

// Record is one captured packet as a standalone value: the unit of the
// pcap path (ReadPcap, WritePcap, Restore). A sniffer keeps no Records;
// its records live in the arena and index.
type Record struct {
	TS   time.Duration
	Dir  netsim.Dir
	Wire []byte
}

// recMeta bits: direction and tap-time classification outcome.
const (
	metaDown  uint8 = 1 << 0 // network -> host (absent: host -> network)
	metaValid uint8 = 1 << 1 // packet.PeekFlow accepted the wire bytes
)

// recPos addresses a record's wire bytes inside the arena.
type recPos struct {
	chunk, off, wlen uint32
}

// recKey is the compact flow key extracted at tap time from header bytes —
// enough for Flows, RemoteEndpoints and protocol grouping without a decode.
type recKey struct {
	src, dst     packet.Addr
	sport, dport uint16
	proto        packet.Proto
}

// recCum is the per-direction byte/packet accumulator maintained at tap
// time: cumulative totals up to (and including) a record, stored with a
// leading zero sentinel so any [lo,hi) index span answers Bytes/Packets in
// O(1) after the timestamp binary search, for every query without a Filter.
type recCum struct {
	bytes, upBytes int64
	upPkts         int32
}

// Sniffer captures traffic at one host's access point. It is not safe for
// concurrent use: a sniffer belongs to one sweep cell, like the lab it taps
// (the §4.6 cell-isolation contract).
type Sniffer struct {
	active bool

	// Struct-of-arrays record index, one entry per captured packet (cum
	// has one extra sentinel entry). Grouping the columns that are written
	// together keeps ingest at five slice appends per packet.
	ts   []time.Duration
	meta []uint8
	pos  []recPos
	key  []recKey
	cum  []recCum

	// arena holds the wire bytes the index points into.
	arena arena

	// scratch holds one reusable decode target per protocol class for
	// Filter evaluation, so filtering same-protocol runs of traffic
	// allocates nothing (packet.DecodeInto reuses the transport struct and
	// payload capacity). Scratch packets never escape: filters see them
	// only for the duration of the callback.
	scratch [4]packet.Packet
}

// NewSniffer returns an unattached sniffer (records are added by taps, or
// by tests via ingest).
func NewSniffer() *Sniffer {
	return &Sniffer{active: true, cum: make([]recCum, 1, 64)}
}

// Restore builds a sniffer over standalone records — the pcap re-analysis
// path (ReadPcap output). Each record's wire bytes are copied into the
// arena and re-classified exactly as a live tap would have.
func Restore(records []Record) *Sniffer {
	s := NewSniffer()
	for i := range records {
		s.ingest(records[i].TS, records[i].Dir, records[i].Wire)
	}
	return s
}

// Attach taps a host and starts capturing immediately.
func Attach(h *netsim.Host) *Sniffer {
	s := NewSniffer()
	h.Tap(s.ingest)
	return s
}

// ingest appends one record: wire bytes into the arena, metadata and the
// tap-time flow key into the index columns, and the cumulative accumulators.
// This is the tapped fast path (it is the TapFunc Attach registers) —
// amortized zero allocations per packet (chunk rotation and column growth
// amortize; Clear recycles both).
func (s *Sniffer) ingest(at time.Duration, dir netsim.Dir, wire []byte) {
	if !s.active {
		return
	}
	ci, off := s.arena.append(wire)
	fl, ok := packet.PeekFlow(wire)
	m := uint8(0)
	if dir == netsim.DirDown {
		m = metaDown
	}
	if ok {
		m |= metaValid
	}
	c := s.cum[len(s.cum)-1]
	c.bytes += int64(len(wire))
	if dir == netsim.DirUp {
		c.upBytes += int64(len(wire))
		c.upPkts++
	}
	s.ts = append(s.ts, at)
	s.meta = append(s.meta, m)
	s.pos = append(s.pos, recPos{chunk: ci, off: off, wlen: uint32(len(wire))})
	s.key = append(s.key, recKey{src: fl.Src.Addr, dst: fl.Dst.Addr, sport: fl.Src.Port, dport: fl.Dst.Port, proto: fl.Proto})
	s.cum = append(s.cum, c)
}

// dirAt reads record i's direction from the meta column.
func (s *Sniffer) dirAt(i int) netsim.Dir {
	if s.meta[i]&metaDown != 0 {
		return netsim.DirDown
	}
	return netsim.DirUp
}

// Len returns the number of captured records.
func (s *Sniffer) Len() int { return len(s.ts) }

// wireAt returns record i's wire bytes; they alias the arena until the
// next Clear.
func (s *Sniffer) wireAt(i int) []byte {
	p := s.pos[i]
	return s.arena.chunks[p.chunk][p.off : p.off+p.wlen : p.off+p.wlen]
}

// scratchPacket decodes record i into the per-protocol scratch for a
// Filter callback — zero allocations in steady state. Records whose
// tap-time classification failed are undecodable by construction and
// return nil without re-running the decoder.
func (s *Sniffer) scratchPacket(i int) *packet.Packet {
	if s.meta[i]&metaValid == 0 {
		return nil
	}
	var k int
	switch s.key[i].proto {
	case packet.ProtoUDP:
		k = 0
	case packet.ProtoTCP:
		k = 1
	case packet.ProtoICMP:
		k = 2
	default:
		k = 3
	}
	sc := &s.scratch[k]
	if packet.DecodeInto(sc, s.wireAt(i)) != nil {
		return nil // unreachable while PeekFlow mirrors Decode
	}
	return sc
}

// Pause stops recording (the tap stays installed).
func (s *Sniffer) Pause() { s.active = false }

// Resume restarts recording.
func (s *Sniffer) Resume() { s.active = true }

// Clear discards captured records: arena chunks go back to the shared pool
// and the index columns are truncated in place (capacity retained, so a
// long session clearing between measurement phases re-captures without
// reallocating its index).
func (s *Sniffer) Clear() {
	s.arena.release()
	s.ts = s.ts[:0]
	s.meta = s.meta[:0]
	s.pos = s.pos[:0]
	s.key = s.key[:0]
	s.cum = s.cum[:1] // keep the zero sentinel
}

// Match selects packets for analysis. Either field may be zero-valued to
// match everything in that dimension.
type Match struct {
	// Dir restricts direction when DirSet is true.
	Dir    netsim.Dir
	DirSet bool
	// Filter, when non-nil, must accept the decoded packet. The *Packet a
	// filter receives may be a reused scratch value: it is valid only for
	// the duration of the callback and must not be retained, and filters
	// must not re-enter the sniffer that invoked them.
	Filter func(*packet.Packet) bool
}

// MatchUp matches host→network packets satisfying f (nil f = all).
func MatchUp(f func(*packet.Packet) bool) Match {
	return Match{Dir: netsim.DirUp, DirSet: true, Filter: f}
}

// MatchDown matches network→host packets satisfying f (nil f = all).
func MatchDown(f func(*packet.Packet) bool) Match {
	return Match{Dir: netsim.DirDown, DirSet: true, Filter: f}
}

// FilterRemote matches packets whose far end (destination when uplink,
// source when downlink) is one of the given addresses — how the paper
// separates per-server channels once it has identified server IPs.
func FilterRemote(addrs ...packet.Addr) func(*packet.Packet) bool {
	set := make(map[packet.Addr]bool, len(addrs))
	for _, a := range addrs {
		set[a] = true
	}
	return func(p *packet.Packet) bool {
		return set[p.IP.Src] || set[p.IP.Dst]
	}
}

// FilterProto matches one transport protocol.
func FilterProto(proto packet.Proto) func(*packet.Packet) bool {
	return func(p *packet.Packet) bool { return p.IP.Protocol == proto }
}

// FilterAnd combines filters conjunctively.
func FilterAnd(fs ...func(*packet.Packet) bool) func(*packet.Packet) bool {
	return func(p *packet.Packet) bool {
		for _, f := range fs {
			if f != nil && !f(p) {
				return false
			}
		}
		return true
	}
}

// acceptsIdx reports whether record i satisfies m: direction from the meta
// column, decode (into scratch) only when a Filter has to see payload.
func (s *Sniffer) acceptsIdx(i int, m Match) bool {
	if m.DirSet && s.dirAt(i) != m.Dir {
		return false
	}
	if m.Filter != nil {
		p := s.scratchPacket(i)
		if p == nil || !m.Filter(p) {
			return false
		}
	}
	return true
}

// span binary-searches the [lo, hi) record index range whose timestamps
// fall in [from, to). Records are appended in nondecreasing timestamp
// order (the tap runs on the scheduler, whose clock is monotonic), so
// window queries never need to scan outside the span.
func (s *Sniffer) span(from, to time.Duration) (lo, hi int) {
	lo = sort.Search(len(s.ts), func(i int) bool { return s.ts[i] >= from })
	hi = sort.Search(len(s.ts), func(i int) bool { return s.ts[i] >= to })
	return lo, hi
}

// Bytes sums wire bytes of matching records in [from, to). Without a
// Filter this is answered from the accumulator columns in O(log records).
func (s *Sniffer) Bytes(m Match, from, to time.Duration) int {
	lo, hi := s.span(from, to)
	if lo >= hi {
		return 0
	}
	if m.Filter == nil {
		total := s.cum[hi].bytes - s.cum[lo].bytes
		if !m.DirSet {
			return int(total)
		}
		up := s.cum[hi].upBytes - s.cum[lo].upBytes
		if m.Dir == netsim.DirUp {
			return int(up)
		}
		return int(total - up)
	}
	total := 0
	for i := lo; i < hi; i++ {
		if s.acceptsIdx(i, m) {
			total += int(s.pos[i].wlen)
		}
	}
	return total
}

// Packets counts matching records in [from, to). Without a Filter this is
// answered from the accumulator columns in O(log records).
func (s *Sniffer) Packets(m Match, from, to time.Duration) int {
	lo, hi := s.span(from, to)
	if lo >= hi {
		return 0
	}
	if m.Filter == nil {
		if !m.DirSet {
			return hi - lo
		}
		up := int(s.cum[hi].upPkts - s.cum[lo].upPkts)
		if m.Dir == netsim.DirUp {
			return up
		}
		return hi - lo - up
	}
	n := 0
	for i := lo; i < hi; i++ {
		if s.acceptsIdx(i, m) {
			n++
		}
	}
	return n
}

// Series buckets matching traffic into a bits-per-second time series over
// [from, to) with the given bucket width.
func (s *Sniffer) Series(m Match, from, to, bucket time.Duration) stats.TimeSeries {
	if bucket <= 0 || to <= from {
		return stats.TimeSeries{}
	}
	n := int((to - from + bucket - 1) / bucket)
	vals := make([]float64, n)
	lo, hi := s.span(from, to)
	for i := lo; i < hi; i++ {
		if !s.acceptsIdx(i, m) {
			continue
		}
		idx := int((s.ts[i] - from) / bucket)
		if idx >= 0 && idx < n {
			vals[idx] += float64(s.pos[i].wlen * 8)
		}
	}
	scale := bucket.Seconds()
	for i := range vals {
		vals[i] /= scale
	}
	return stats.TimeSeries{Start: from, Step: bucket, Values: vals}
}

// MeanBps averages matching throughput over [from, to) in bits/second.
func (s *Sniffer) MeanBps(m Match, from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	return float64(s.Bytes(m, from, to)*8) / (to - from).Seconds()
}

// FlowStat accumulates per-flow counters.
type FlowStat struct {
	Flow           packet.Flow
	Packets        int
	Bytes          int
	First, Last    time.Duration
	UpPkts, DnPkts int
}

// Flows groups matching records by symmetric flow hash, merging the two
// directions of each conversation (gopacket's symmetric FastHash pattern).
// The flow keys come from the index columns — no decoding happens unless
// the match carries a Filter.
func (s *Sniffer) Flows(m Match) []*FlowStat {
	byHash := make(map[uint64]*FlowStat)
	var order []uint64
	for i := 0; i < s.Len(); i++ {
		if s.meta[i]&metaValid == 0 || !s.acceptsIdx(i, m) {
			continue
		}
		k := s.key[i]
		fl := packet.Flow{
			Proto: k.proto,
			Src:   packet.Endpoint{Addr: k.src, Port: k.sport},
			Dst:   packet.Endpoint{Addr: k.dst, Port: k.dport},
		}
		h := fl.FastHash()
		st, ok := byHash[h]
		if !ok {
			st = &FlowStat{Flow: fl, First: s.ts[i]}
			byHash[h] = st
			order = append(order, h)
		}
		st.Packets++
		st.Bytes += int(s.pos[i].wlen)
		st.Last = s.ts[i]
		if s.meta[i]&metaDown == 0 {
			st.UpPkts++
		} else {
			st.DnPkts++
		}
	}
	out := make([]*FlowStat, 0, len(order))
	for _, h := range order {
		out = append(out, byHash[h])
	}
	return out
}

// RemoteEndpoints lists the distinct far-end addresses seen, in first-seen
// order — the server-discovery step of §4. Pure column scan: the far end
// is the flow key's destination on uplink, source on downlink.
func (s *Sniffer) RemoteEndpoints(local packet.Addr) []packet.Addr {
	seen := make(map[packet.Addr]bool)
	var out []packet.Addr
	for i := 0; i < s.Len(); i++ {
		if s.meta[i]&metaValid == 0 {
			continue
		}
		remote := s.key[i].dst
		if s.meta[i]&metaDown != 0 {
			remote = s.key[i].src
		}
		if remote == local || seen[remote] {
			continue
		}
		seen[remote] = true
		out = append(out, remote)
	}
	return out
}
