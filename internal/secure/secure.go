// Package secure implements the TLS-equivalent session layer used by every
// control channel in the lab (the paper's "HTTPS"). It performs a handshake
// with realistic byte costs over a transport.Conn and thereafter frames
// application data into records with AEAD expansion, so captured HTTPS
// traffic carries the same protocol overhead the paper measured (one reason
// Hubs' avatar channel costs more than UDP-based ones, §5.2).
package secure

import (
	"bytes"
	"encoding/binary"
	"errors"

	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/transport"
)

// Handshake message sizes, modelled on a typical TLS 1.3 exchange with a
// 2-certificate chain.
const (
	clientHelloLen    = 330
	serverHelloLen    = 2900 // hello + cert chain + finished
	clientFinishedLen = 90
)

// Session is one side of an established (or establishing) secure channel.
type Session struct {
	conn    *transport.Conn
	client  bool
	ready   bool
	metrics *obs.Registry

	// Precomputed metric handles for the per-record path.
	cRecordsSent  obs.Counter
	cRecordsRecv  obs.Counter
	cAppBytesSent obs.Counter
	cAppBytesRecv obs.Counter
	cHandshakes   obs.Counter

	// OnEstablished fires when the handshake completes.
	OnEstablished func()
	// OnData receives defragmented application record bodies. The slice is
	// borrowed: it is valid only during the call, so a callee that keeps
	// bytes must copy them.
	OnData func([]byte)

	// rxBuf holds received stream bytes not yet cut into whole records.
	rxBuf bytes.Buffer

	// Reused send scratch: plain assembles a record's plaintext when the
	// caller holds none (a handshake body) or not in one piece (a message
	// header followed by the first body bytes); rec holds one marshaled
	// record on its way into the connection's send queue.
	plain, rec []byte

	// queued application data written before the handshake finished.
	pending [][]byte

	// Counters.
	AppBytesSent int
	AppBytesRecv int
}

func newSession(conn *transport.Conn, client bool) *Session {
	s := &Session{conn: conn, client: client, metrics: conn.Metrics()}
	m := s.metrics
	s.cRecordsSent = m.Counter("secure.records_sent")
	s.cRecordsRecv = m.Counter("secure.records_recv")
	s.cAppBytesSent = m.Counter("secure.app_bytes_sent")
	s.cAppBytesRecv = m.Counter("secure.app_bytes_recv")
	s.cHandshakes = m.Counter("secure.handshakes")
	return s
}

// Client starts a TLS handshake on an already-dialed connection.
func Client(conn *transport.Conn) *Session {
	s := newSession(conn, true)
	conn.OnData = s.onRaw
	start := func() {
		conn.Tracer().TLS(conn.Now(), conn.Span(), conn.HostID(), "client-hello")
		s.sendHandshake(1, clientHelloLen) // ClientHello type marker
	}
	if conn.State() == transport.StateEstablished {
		start()
	} else {
		prev := conn.OnEstablished
		conn.OnEstablished = func() {
			if prev != nil {
				prev()
			}
			start()
		}
	}
	return s
}

// Server wraps an accepted connection and answers the client handshake.
func Server(conn *transport.Conn) *Session {
	s := newSession(conn, false)
	conn.OnData = s.onRaw
	return s
}

// Established reports whether application data can flow.
func (s *Session) Established() bool { return s.ready }

// Conn exposes the underlying transport connection (for drain hooks).
func (s *Session) Conn() *transport.Conn { return s.conn }

// maxRecord is the plaintext the session puts in one application record.
const maxRecord = 4096

// Send transmits application bytes as one or more records. Data written
// before the handshake completes is queued and flushed on establishment.
// Send copies data; the caller may reuse it as soon as Send returns.
func (s *Session) Send(data []byte) {
	if !s.ready {
		s.pending = append(s.pending, append([]byte(nil), data...))
		return
	}
	s.sendNow(data)
}

// SendMsg frames one message (see MarshalMsg) and sends it with exactly the
// record boundaries Send(MarshalMsg(kind, body)) produces, without
// materializing the framed message: the body is copied once, into the
// connection's send queue, which is grown to the message's wire size up
// front. Like Send, it copies body before returning.
func (s *Session) SendMsg(kind byte, body []byte) {
	if !s.ready {
		s.pending = append(s.pending, MarshalMsg(kind, body))
		return
	}
	n := msgHeaderLen + len(body)
	records := (n + maxRecord - 1) / maxRecord
	s.conn.Grow(n + records*(packet.TLSRecordHeaderLen+packet.TLSRecordOverhead))
	// The first record carries the header and the start of the body.
	k := min(len(body), maxRecord-msgHeaderLen)
	s.plain = appendMsgHeader(s.plain[:0], kind, len(body))
	s.plain = append(s.plain, body[:k]...)
	s.sendNow(s.plain)
	s.sendNow(body[k:])
}

func (s *Session) sendNow(data []byte) {
	for len(data) > 0 {
		n := min(len(data), maxRecord)
		s.sendRecord(packet.TLSApplicationData, data[:n])
		s.AppBytesSent += n
		s.cRecordsSent.Inc()
		s.cAppBytesSent.Add(int64(n))
		data = data[n:]
	}
}

// sendRecord marshals one record into the reused scratch buffer and queues
// it on the connection, which copies it.
func (s *Session) sendRecord(contentType uint8, body []byte) {
	s.rec = packet.AppendTLSRecord(s.rec[:0], contentType, body)
	s.conn.Send(s.rec)
}

// sendHandshake sends a handshake record of n body bytes, zero apart from
// the leading message-type marker.
func (s *Session) sendHandshake(marker byte, n int) {
	s.plain = append(append(s.plain[:0], marker), make([]byte, n-1)...)
	s.sendRecord(packet.TLSHandshake, s.plain)
}

func (s *Session) flushPending() {
	for _, d := range s.pending {
		s.sendNow(d)
	}
	s.pending = nil
}

// onRaw reassembles records from the TCP byte stream. A short decode waits
// for more bytes; a malformed record means the stream is corrupt beyond
// recovery (record boundaries are lost), so the buffer is dropped and the
// event counted — a real TLS peer would send a fatal alert here. Record
// bodies are handed to OnData as views into rxBuf: consumed bytes stay in
// place until the next Write, which happens only after OnData returns.
func (s *Session) onRaw(b []byte) {
	s.rxBuf.Write(b)
	for {
		buf := s.rxBuf.Bytes()
		rec, body, rest, err := packet.DecodeTLSRecord(buf)
		if errors.Is(err, packet.ErrTLSMalformed) {
			s.rxBuf.Reset()
			s.metrics.Inc("secure.bad_records")
			return
		}
		if err != nil {
			return // need more bytes
		}
		// Consume exactly one record.
		s.rxBuf.Next(len(buf) - len(rest))
		switch rec.ContentType {
		case packet.TLSHandshake:
			s.onHandshake(body)
		case packet.TLSApplicationData:
			s.AppBytesRecv += len(body)
			s.cRecordsRecv.Inc()
			s.cAppBytesRecv.Add(int64(len(body)))
			if s.OnData != nil {
				s.OnData(body)
			}
		}
	}
}

func (s *Session) onHandshake(body []byte) {
	if s.client {
		// ServerHello+cert received: send Finished, session is up.
		if !s.ready {
			s.conn.Tracer().TLS(s.conn.Now(), s.conn.Span(), s.conn.HostID(), "client-finished")
			s.sendHandshake(20, clientFinishedLen)
			s.ready = true
			s.cHandshakes.Inc()
			s.conn.Tracer().TLS(s.conn.Now(), s.conn.Span(), s.conn.HostID(), "established")
			if s.OnEstablished != nil {
				s.OnEstablished()
			}
			s.flushPending()
		}
		return
	}
	// Server side.
	if len(body) > 0 && body[0] == 1 { // ClientHello
		s.conn.Tracer().TLS(s.conn.Now(), s.conn.Span(), s.conn.HostID(), "server-hello")
		s.sendHandshake(2, serverHelloLen)
		return
	}
	if len(body) > 0 && body[0] == 20 { // client Finished
		if !s.ready {
			s.ready = true
			s.cHandshakes.Inc()
			s.conn.Tracer().TLS(s.conn.Now(), s.conn.Span(), s.conn.HostID(), "established")
			if s.OnEstablished != nil {
				s.OnEstablished()
			}
			s.flushPending()
		}
	}
}

// Message framing helpers: the lab's HTTP-equivalent exchanges
// length-prefixed messages over a Session. A message is a 1-byte kind, a
// 4-byte length, then the body — enough structure for request/response
// matching and for the capture classifier to stay honest (it never reads
// these plaintext bytes; they are "encrypted" on the wire).
const msgHeaderLen = 5

// Kind values for framed messages.
const (
	MsgRequest  = 1
	MsgResponse = 2
	MsgPush     = 3 // server-initiated (e.g. forwarded avatar state on Hubs)
	MsgReport   = 4 // periodic client report (the §4.1 HTTPS spikes)
)

// MarshalMsg frames a message.
func MarshalMsg(kind byte, body []byte) []byte {
	out := make([]byte, 0, msgHeaderLen+len(body))
	return append(appendMsgHeader(out, kind, len(body)), body...)
}

func appendMsgHeader(dst []byte, kind byte, n int) []byte {
	return binary.BigEndian.AppendUint32(append(dst, kind), uint32(n))
}

// MsgReader incrementally parses framed messages from Session.OnData
// deliveries (records may split or merge messages).
type MsgReader struct {
	// OnMsg receives each complete message. The body is borrowed: it is
	// valid only during the call. A nil OnMsg skips bodies as they stream
	// past instead of buffering them.
	OnMsg  func(kind byte, body []byte)
	MaxLen int // safety bound; 0 means 16 MiB

	buf  bytes.Buffer // bytes of the current message not yet dispatched
	skip int          // body bytes still to discard when OnMsg is nil
}

// Feed appends bytes and dispatches every complete message.
func (r *MsgReader) Feed(b []byte) {
	limit := r.MaxLen
	if limit == 0 {
		limit = 16 << 20
	}
	k := min(r.skip, len(b))
	r.skip -= k
	r.buf.Write(b[k:])
	for r.buf.Len() >= msgHeaderLen {
		buf := r.buf.Bytes()
		n := int(binary.BigEndian.Uint32(buf[1:5]))
		if n > limit {
			// Corrupt stream; drop everything.
			r.buf.Reset()
			return
		}
		if r.OnMsg == nil {
			// Nobody reads the body: discard what is here, skip the rest.
			have := min(n, len(buf)-msgHeaderLen)
			r.buf.Next(msgHeaderLen + have)
			r.skip = n - have
			continue
		}
		if len(buf) < msgHeaderLen+n {
			return
		}
		r.buf.Next(msgHeaderLen + n)
		r.OnMsg(buf[0], buf[msgHeaderLen:msgHeaderLen+n])
	}
}
