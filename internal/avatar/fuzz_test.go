package avatar

import (
	"slices"
	"testing"

	"github.com/svrlab/svrlab/internal/wiretest"
)

var allCodecs = []*Codec{AltspaceVRCodec, HubsCodec, RecRoomCodec, VRChatCodec, WorldsCodec}

// stalePose returns a Pose that last held a decoded Worlds update, the
// richest embodiment: every field is set and Body and Face have capacity.
func stalePose(t testing.TB) *Pose {
	p := &Pose{}
	if err := WorldsCodec.Decode(WorldsCodec.AppendEncode(nil, samplePose()), p); err != nil {
		t.Fatalf("decode Worlds sample: %v", err)
	}
	return p
}

// samePose compares decoded poses field by field; an empty Body or Face
// equals a nil one.
func samePose(a, b *Pose) bool {
	return a.Head == b.Head && a.Torso == b.Torso && a.Hands == b.Hands &&
		a.Fingers == b.Fingers && slices.Equal(a.Body, b.Body) && slices.Equal(a.Face, b.Face)
}

// checkAvatarCodec is the §4.10 contract for the pose codecs. The first
// byte picks the codec and the rest is its payload. Arbitrary bytes never
// panic; an accepted payload re-encodes byte-identically; and decoding into
// a reused Pose that last held a Worlds pose gives the same result as
// decoding into a zero Pose, so no field survives from the previous update.
func checkAvatarCodec(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	c := allCodecs[int(data[0])%len(allCodecs)]
	b := data[1:]
	var fresh Pose
	if err := c.Decode(b, &fresh); err != nil {
		return
	}
	wiretest.AssertRemarshal(t, b, c.AppendEncode(nil, &fresh))
	reused := stalePose(t)
	if err := c.Decode(b, reused); err != nil {
		t.Fatalf("%s: decode into a reused pose failed: %v", c.Name, err)
	}
	if !samePose(&fresh, reused) {
		t.Fatalf("%s: decode into a reused pose kept stale fields:\n fresh:  %+v\n reused: %+v", c.Name, fresh, *reused)
	}
}

func FuzzAvatarCodec(f *testing.F) {
	for i, c := range allCodecs {
		f.Add(append([]byte{byte(i)}, c.AppendEncode(nil, samplePose())...))
	}
	f.Fuzz(checkAvatarCodec)
}

func TestAvatarCodecCorpusReplay(t *testing.T) {
	wiretest.Replay(t, "FuzzAvatarCodec", checkAvatarCodec)
}

// TestDecodeRejectsUnencodableRotation: quantRot clamps quaternion
// components to ±32767, so a component of −32768 (0x8000) is not in the
// encoder's image. Accepting it would break round-trip identity: it
// decodes to just below −1 and re-encodes as 0x8001.
func TestDecodeRejectsUnencodableRotation(t *testing.T) {
	for _, c := range allCodecs {
		good := c.AppendEncode(nil, samplePose())
		for joint := 0; joint < c.joints(); joint++ {
			for comp := 0; comp < 4; comp++ {
				b := append([]byte(nil), good...)
				off := 2 + joint*jointWireLen + 6 + 2*comp
				b[off], b[off+1] = 0x00, 0x80
				var p Pose
				if err := c.Decode(b, &p); err == nil {
					t.Fatalf("%s: joint %d component %d of 0x8000 accepted", c.Name, joint, comp)
				}
			}
		}
		// The largest encodable magnitudes are accepted and round-trip.
		b := append([]byte(nil), good...)
		b[8], b[9] = 0x01, 0x80   // head W = −32767
		b[10], b[11] = 0xff, 0x7f // head X = +32767
		var p Pose
		if err := c.Decode(b, &p); err != nil {
			t.Fatalf("%s: ±32767 rejected: %v", c.Name, err)
		}
		wiretest.AssertRemarshal(t, b, c.AppendEncode(nil, &p))
	}
}

// TestCodecAllocFree: decoding into a reused Pose and encoding into a
// reused buffer allocate nothing, for every codec — the per-update avatar
// path the platform servers and clients run on every forward.
func TestCodecAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds allocate in AppendEncode's growth idiom; alloc bound only holds without -race")
	}
	src := samplePose()
	for _, c := range allCodecs {
		var dst Pose
		buf := c.AppendEncode(nil, src)
		if err := c.Decode(buf, &dst); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			buf = c.AppendEncode(buf[:0], src)
			if err := c.Decode(buf, &dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: encode+decode allocates %.1f objects per update, want 0", c.Name, allocs)
		}
	}
}
