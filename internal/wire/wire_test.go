package wire

import (
	"bytes"
	"strings"
	"testing"

	"rmcast/internal/metrics"
	"rmcast/internal/packet"
)

// rig is a codec whose arm and send callbacks record into slices.
type rig struct {
	mx     *metrics.Session
	c      *Codec
	arms   int
	frames [][]byte
}

func newRig() *rig {
	r := &rig{mx: metrics.NewSession()}
	r.c = NewCodec(packet.DefaultCompressThreshold, 0, r.mx,
		func() { r.arms++ },
		func(f []byte) { r.frames = append(r.frames, f) })
	return r
}

func dataPacket(seq int) *packet.Packet {
	return &packet.Packet{Type: packet.TypeData, MsgID: 4, Seq: uint32(seq), Aux: uint32(seq * 200),
		Payload: []byte(strings.Repeat("small message body ", 10))}
}

// decodeAll strictly decodes frames in order, cloning every emitted
// packet past its borrow window.
func decodeAll(t *testing.T, c *Codec, frames [][]byte) []*packet.Packet {
	t.Helper()
	var got []*packet.Packet
	for i, f := range frames {
		if err := c.Decode(f, func(p *packet.Packet) { got = append(got, p.Clone()) }); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	return got
}

func samePacket(a, b *packet.Packet) bool {
	return a.Type == b.Type && a.Flags == b.Flags && a.Src == b.Src &&
		a.MsgID == b.MsgID && a.Seq == b.Seq && a.Aux == b.Aux &&
		bytes.Equal(a.Payload, b.Payload)
}

// TestCodecCoalescesAndRoundTrips: data multicasts queue until the
// scheduled flush, leave as one compressed carrier, and decode back to
// the same packets in send order, with the frame accounted.
func TestCodecCoalescesAndRoundTrips(t *testing.T) {
	tx, rx := newRig(), newRig()
	var want []*packet.Packet
	for i := 0; i < 5; i++ {
		p := dataPacket(i)
		want = append(want, p.Clone())
		tx.c.Multicast(p)
	}
	if tx.arms != 1 {
		t.Fatalf("arm called %d times for one batch, want 1", tx.arms)
	}
	if len(tx.frames) != 0 {
		t.Fatalf("%d frames sent before the flush", len(tx.frames))
	}
	tx.c.FlushBatch()
	if len(tx.frames) != 1 {
		t.Fatalf("flush sent %d frames, want 1 carrier", len(tx.frames))
	}
	wf := packet.WireFlags(tx.frames[0][packet.HeaderLenV2-1])
	if wf != packet.WireCarrier|packet.WireCompressed {
		t.Fatalf("wire flags %#x, want a compressed carrier", wf)
	}
	got := decodeAll(t, rx.c, tx.frames)
	if len(got) != len(want) {
		t.Fatalf("decoded %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if !samePacket(got[i], want[i]) {
			t.Fatalf("packet %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	m := tx.mx.Snapshot()
	if m.WireFrames != 1 || m.CarrierFrames != 1 || m.CompressedFrames != 1 || m.CoalescedPackets != 5 {
		t.Fatalf("sender accounting %+v", m)
	}
	if m.WireBytes != uint64(len(tx.frames[0])) || m.WireRawBytes <= m.WireBytes {
		t.Fatalf("wire bytes %d raw %d for a %d-byte compressed frame", m.WireBytes, m.WireRawBytes, len(tx.frames[0]))
	}
	if rx.mx.Snapshot().CorruptFrames != 0 {
		t.Fatal("clean frames counted as corrupt")
	}

	// The flush re-enabled arming for the next batch.
	tx.c.Multicast(dataPacket(5))
	if tx.arms != 2 {
		t.Fatalf("arm called %d times after the second batch started, want 2", tx.arms)
	}
}

// TestEncodeUnicastFlushesQueuedMulticast: a unicast reply cannot
// overtake the data queued before it.
func TestEncodeUnicastFlushesQueuedMulticast(t *testing.T) {
	tx, rx := newRig(), newRig()
	for i := 0; i < 3; i++ {
		tx.c.Multicast(dataPacket(i))
	}
	ack := &packet.Packet{Type: packet.TypeAck, MsgID: 4, Seq: 3}
	uni := tx.c.EncodeUnicast(ack)
	if len(tx.frames) != 1 {
		t.Fatalf("EncodeUnicast left the queue unsent: %d multicast frames", len(tx.frames))
	}
	got := decodeAll(t, rx.c, append(tx.frames, uni))
	if len(got) != 4 {
		t.Fatalf("decoded %d packets, want 3 data then the ack", len(got))
	}
	for i := 0; i < 3; i++ {
		if got[i].Type != packet.TypeData || got[i].Seq != uint32(i) {
			t.Fatalf("packet %d: %v", i, got[i])
		}
	}
	if !samePacket(got[3], ack) {
		t.Fatalf("unicast decoded as %v", got[3])
	}
	if m := tx.mx.Snapshot(); m.WireFrames != 2 {
		t.Fatalf("accounted %d frames, want the carrier and the unicast", m.WireFrames)
	}
	// The already-scheduled flush still fires and finds nothing queued.
	tx.c.FlushBatch()
	if len(tx.frames) != 1 {
		t.Fatalf("the scheduled flush sent %d extra frames", len(tx.frames)-1)
	}
}

// TestDecodeCountsMangledFrames: every damaged frame is counted once
// as corrupt and emits nothing, a carrier included.
func TestDecodeCountsMangledFrames(t *testing.T) {
	tx, rx := newRig(), newRig()
	for i := 0; i < 4; i++ {
		tx.c.Multicast(dataPacket(i))
	}
	tx.c.FlushBatch()
	frame := tx.frames[0]
	mangled := [][]byte{
		frame[:len(frame)-1], // truncated trailer
		frame[:3],            // truncated header
	}
	for _, i := range []int{0, 1, packet.HeaderLenV2 - 1, packet.HeaderLenV2 + 3, len(frame) - 1} {
		m := append([]byte(nil), frame...)
		m[i] ^= 0x10
		mangled = append(mangled, m)
	}
	for i, m := range mangled {
		if err := rx.c.Decode(m, func(p *packet.Packet) {
			t.Fatalf("mangled frame %d emitted %v", i, p)
		}); err == nil {
			t.Fatalf("mangled frame %d accepted", i)
		}
	}
	if got := rx.mx.Snapshot().CorruptFrames; got != uint64(len(mangled)) {
		t.Fatalf("counted %d corrupt frames, want %d", got, len(mangled))
	}
	// The intact frame still decodes, and is not counted.
	if n := len(decodeAll(t, rx.c, tx.frames)); n != 4 {
		t.Fatalf("intact carrier decoded to %d packets, want 4", n)
	}
	if got := rx.mx.Snapshot().CorruptFrames; got != uint64(len(mangled)) {
		t.Fatalf("intact frame counted as corrupt: %d", got)
	}
}
