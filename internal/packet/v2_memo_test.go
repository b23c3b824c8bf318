package packet

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// poisonedFlate stands in for a decoder's flate reader and fails on any
// use, so a compressed frame that decodes with it installed was served
// by the inflate memo.
type poisonedFlate struct{}

var errFlateUsed = errors.New("flate reader used")

func (poisonedFlate) Read([]byte) (int, error)      { return 0, errFlateUsed }
func (poisonedFlate) Close() error                  { return nil }
func (poisonedFlate) Reset(io.Reader, []byte) error { return errFlateUsed }

// decodeWith decodes frame on d, cloning what it emits and then
// scribbling over every borrowed payload byte, as a careless handler
// might.
func decodeWith(d *decoder, frame []byte) ([]*Packet, error) {
	var out []*Packet
	err := d.decodeV2(frame, func(p *Packet) {
		out = append(out, p.Clone())
		for i := range p.Payload {
			p.Payload[i] = 0xFF
		}
	})
	return out, err
}

func samePackets(a, b []*Packet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !samePacket(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestInflateMemoHitMatchesFreshDecode: a memo hit emits exactly what a
// fresh decoder emits, although the handler of the decode that filled
// the memo scribbled over its borrowed payloads.
func TestInflateMemoHitMatchesFreshDecode(t *testing.T) {
	for _, name := range []string{"compressed", "carrier-compressed"} {
		frame := v2Corpus()[name]
		want, err := decodeWith(new(decoder), frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := new(decoder)
		if _, err := decodeWith(d, frame); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d.fr = poisonedFlate{}
		for i := 0; i < 3; i++ {
			got, err := decodeWith(d, frame)
			if err != nil {
				t.Fatalf("%s: repeat %d missed the memo: %v", name, i, err)
			}
			if !samePackets(got, want) {
				t.Fatalf("%s: repeat %d emitted %+v, want %+v", name, i, got, want)
			}
		}
	}
}

// TestInflateMemoSameBodyDifferentHeaders: frames that share a
// compressed body but not a header each decode with their own header
// fields; only the inflated body comes from the memo.
func TestInflateMemoSameBodyDifferentHeaders(t *testing.T) {
	payload := []byte(strings.Repeat("shared body ", 40))
	body := freshDeflate(t, payload)
	a := &Packet{Type: TypeData, Flags: FlagPoll, Src: 2, MsgID: 1, Seq: 7, Aux: 100, Payload: payload}
	b := &Packet{Type: TypeSnap, Flags: FlagLast, Src: 9, MsgID: 4, Seq: 8, Aux: 200, Payload: payload}
	d := new(decoder)
	got, err := decodeWith(d, sealV2(a, WireCompressed, body))
	if err != nil || !samePackets(got, []*Packet{a}) {
		t.Fatalf("first frame: %+v, %v", got, err)
	}
	d.fr = poisonedFlate{}
	got, err = decodeWith(d, sealV2(b, WireCompressed, body))
	if err != nil {
		t.Fatalf("second frame missed the memo: %v", err)
	}
	if !samePackets(got, []*Packet{b}) {
		t.Fatalf("second frame emitted %+v, want %+v", got[0], b)
	}

	// Carriers: the outer header differs, the inner packets come from
	// the shared body.
	carrier := carrierFrame(DefaultCompressThreshold, 10)
	cbody := carrier[HeaderLenV2 : len(carrier)-TrailerLen]
	other := sealV2(&Packet{Type: TypeData, MsgID: 77, Seq: 99, Aux: 4}, WireCarrier|WireCompressed, cbody)
	d = new(decoder)
	want, err := decodeWith(d, carrier)
	if err != nil {
		t.Fatal(err)
	}
	d.fr = poisonedFlate{}
	if got, err = decodeWith(d, other); err != nil {
		t.Fatalf("carrier with a new outer header missed the memo: %v", err)
	}
	if !samePackets(got, want) {
		t.Fatalf("carrier with a new outer header emitted %+v, want %+v", got, want)
	}
}

// TestInflateMemoBadCRCStillRejected: damage outside the compressed
// body leaves the body equal to the cached one, and the frame still
// fails its CRC before the memo is consulted.
func TestInflateMemoBadCRCStillRejected(t *testing.T) {
	frame := v2Corpus()["compressed"]
	want, err := decodeWith(new(decoder), frame)
	if err != nil {
		t.Fatal(err)
	}
	d := new(decoder)
	if _, err := decodeWith(d, frame); err != nil {
		t.Fatal(err)
	}
	d.fr = poisonedFlate{}
	var outside []int // bit indexes in the header after magic/version, and in the trailer
	for i := 2 * 8; i < HeaderLenV2*8; i++ {
		outside = append(outside, i)
	}
	for i := (len(frame) - TrailerLen) * 8; i < len(frame)*8; i++ {
		outside = append(outside, i)
	}
	for _, bit := range outside {
		mut := append([]byte(nil), frame...)
		mut[bit/8] ^= 1 << (bit % 8)
		if !bytes.Equal(mut[HeaderLenV2:len(mut)-TrailerLen], frame[HeaderLenV2:len(frame)-TrailerLen]) {
			t.Fatalf("bit %d changed the body", bit)
		}
		got, err := decodeWith(d, mut)
		if err != ErrBadCRC || len(got) != 0 {
			t.Fatalf("bit %d: err = %v, emitted %d packets; want ErrBadCRC and none", bit, err, len(got))
		}
	}
	got, err := decodeWith(d, frame)
	if err != nil || !samePackets(got, want) {
		t.Fatalf("the intact frame after the rejections: %+v, %v", got, err)
	}
}

// TestInflateMemoNeverCachesFailures: a stream that fails to inflate —
// malformed flate or a decompression bomb — is never recorded. The memo
// keeps the last good result, the same bad frame fails again, and the
// next good frame decodes.
func TestInflateMemoNeverCachesFailures(t *testing.T) {
	good := v2Corpus()["carrier-compressed"]
	goodBody := good[HeaderLenV2 : len(good)-TrailerLen]
	want, err := decodeWith(new(decoder), good)
	if err != nil {
		t.Fatal(err)
	}
	stream := freshDeflate(t, []byte(strings.Repeat("compressible! ", 30)))
	bad := map[string][]byte{
		"garbage":   []byte("not a flate stream at all"),
		"truncated": stream[:len(stream)/2],
		"bad-block": append([]byte{0x07}, stream[1:]...),
		"bomb":      freshDeflate(t, make([]byte, maxInflate+4096)),
	}
	for name, body := range bad {
		frame := sealV2(&Packet{Type: TypeData, Seq: 6}, WireCompressed, body)
		fresh := new(decoder)
		if _, err := decodeWith(fresh, frame); err != ErrBadCompression {
			t.Fatalf("%s on a fresh decoder: err = %v, want ErrBadCompression", name, err)
		}
		if len(fresh.memoIn) != 0 {
			t.Fatalf("%s: a failed inflate filled an empty memo", name)
		}
		d := new(decoder)
		if _, err := decodeWith(d, good); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			got, err := decodeWith(d, frame)
			if err != ErrBadCompression || len(got) != 0 {
				t.Fatalf("%s, attempt %d: err = %v, emitted %d; want ErrBadCompression and none", name, i, err, len(got))
			}
			if !bytes.Equal(d.memoIn, goodBody) {
				t.Fatalf("%s, attempt %d: the failure replaced the memo", name, i)
			}
		}
		got, err := decodeWith(d, good)
		if err != nil || !samePackets(got, want) {
			t.Fatalf("%s: the next good frame: %+v, %v", name, got, err)
		}
	}
}
