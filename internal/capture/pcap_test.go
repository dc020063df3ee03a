package capture

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
)

func samplePacket(payload int) []byte {
	p := &packet.Packet{
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: 1, Dst: 2},
		UDP:     &packet.UDP{SrcPort: 1000, DstPort: 2000},
		Payload: make([]byte, payload),
	}
	return p.Marshal()
}

func TestPcapRoundTrip(t *testing.T) {
	records := []Record{
		{TS: 1500 * time.Millisecond, Wire: samplePacket(10)},
		{TS: 2750 * time.Millisecond, Dir: netsim.DirDown, Wire: samplePacket(100)},
		{TS: 61 * time.Second, Wire: samplePacket(0)},
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("records = %d, want %d", len(got), len(records))
	}
	for i := range records {
		if got[i].TS != records[i].TS {
			t.Fatalf("record %d TS = %v, want %v", i, got[i].TS, records[i].TS)
		}
		if !bytes.Equal(got[i].Wire, records[i].Wire) {
			t.Fatalf("record %d wire bytes differ", i)
		}
		// Pcap stores no direction: restored records carry DirUp.
		if got[i].Dir != netsim.DirUp {
			t.Fatalf("record %d Dir = %v, want DirUp", i, got[i].Dir)
		}
		// Restored records decode.
		if _, err := packet.Decode(got[i].Wire); err != nil {
			t.Fatalf("record %d undecodable after round trip: %v", i, err)
		}
	}
}

func TestPcapEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePcap(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 24 {
		t.Fatalf("empty pcap = %d bytes, want header only (24)", buf.Len())
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("records = %d", len(got))
	}
}

func TestPcapRejectsGarbage(t *testing.T) {
	if _, err := ReadPcap(bytes.NewReader([]byte("not a pcap file at all....."))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncated record body.
	var buf bytes.Buffer
	if err := WritePcap(&buf, []Record{{TS: time.Second, Wire: samplePacket(50)}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadPcap(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated pcap accepted")
	}
}

func TestPcapTruncatedGlobalHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePcap(&buf, nil); err != nil {
		t.Fatal(err)
	}
	// Every proper prefix of the 24-byte global header must be rejected.
	for n := 0; n < buf.Len(); n++ {
		if _, err := ReadPcap(bytes.NewReader(buf.Bytes()[:n])); err == nil {
			t.Fatalf("accepted %d-byte global header prefix", n)
		}
	}
}

func TestPcapTruncatedRecordHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePcap(&buf, []Record{{TS: time.Second, Wire: samplePacket(20)}}); err != nil {
		t.Fatal(err)
	}
	// Cut inside the 16-byte record header (after the global header): a
	// partial record header is a malformed file, not a clean EOF.
	for _, cut := range []int{24 + 1, 24 + 8, 24 + 15} {
		if _, err := ReadPcap(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("accepted pcap cut at byte %d (inside record header)", cut)
		}
	}
}

func TestSnifferSavePcap(t *testing.T) {
	r := newRig(t)
	r.sendUDP(time.Second, 40)
	r.sendTCPDown(2*time.Second, 40)
	r.s.Run()
	var buf bytes.Buffer
	if err := r.sniff.SavePcap(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != r.sniff.Len() {
		t.Fatalf("restored %d records, want %d", len(got), r.sniff.Len())
	}
	// Analyses still work on restored data.
	restored := Restore(got)
	if n := restored.Packets(Match{Filter: FilterProto(packet.ProtoTCP)}, 0, time.Hour); n != 1 {
		t.Fatalf("restored TCP packets = %d", n)
	}
}

func TestPropertyPcapRoundTrip(t *testing.T) {
	f := func(payloads []uint16, tsRaw []uint32) bool {
		n := len(payloads)
		if len(tsRaw) < n {
			n = len(tsRaw)
		}
		if n > 16 {
			n = 16
		}
		var records []Record
		for i := 0; i < n; i++ {
			records = append(records, Record{
				TS:   time.Duration(tsRaw[i]) * time.Microsecond,
				Wire: samplePacket(int(payloads[i]) % 1400),
			})
		}
		var buf bytes.Buffer
		if err := WritePcap(&buf, records); err != nil {
			return false
		}
		got, err := ReadPcap(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(records) {
			return false
		}
		for i := range got {
			if got[i].TS != records[i].TS || !bytes.Equal(got[i].Wire, records[i].Wire) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
