// Wire format v2: the v1 header plus a wire-flags byte, an optional
// flate-compressed payload, optional small-message coalescing into
// carrier frames, and a CRC32-C trailer over the whole frame.
//
// Layout:
//
//	offset  size  field
//	0       1     Magic (0xA7)
//	1       1     Version (2)
//	2       1     Type
//	3       1     Flags
//	4       4     MsgID (big endian)
//	8       4     Seq
//	12      4     Aux
//	16      2     Src
//	18      1     WireFlags
//	19      n     payload (flate-compressed when WireCompressed)
//	19+n    4     CRC32-C over bytes [0, 19+n) (big endian)
//
// A WireCarrier frame's (decompressed) payload is a sequence of inner
// packets, each a complete v1 encoding prefixed by its big-endian
// uint16 length. Inner packets are always version 1 — carriers do not
// nest — and the outer header echoes the first inner packet's fields
// with Aux carrying the inner count.
//
// The decode order is magic, version, CRC, then everything else, so
// any single corrupted bit in a v2 frame fails one of the first three
// guards: CRC32-C detects all single- and double-bit errors at these
// frame sizes, and the two bytes it cannot vouch for (a flipped magic
// or version byte) change the frame class and are rejected by the
// strict decoder before any field is trusted.
package packet

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"sync"
)

// Version2 marks a checksummed v2 frame.
const Version2 = 2

// V2 frame size constants.
const (
	// HeaderLenV2 is the v1 header plus the wire-flags byte.
	HeaderLenV2 = HeaderLen + 1
	// TrailerLen is the CRC32-C trailer size.
	TrailerLen = 4
	// OverheadV2 is the per-frame cost of v2 over v1.
	OverheadV2 = HeaderLenV2 - HeaderLen + TrailerLen
	// DefaultCompressThreshold is the smallest payload EncodeV2
	// attempts to compress: below it the flate header overhead wins.
	DefaultCompressThreshold = 128
	// DefaultCoalesceMTU is the default carrier-frame budget: an
	// Ethernet payload minus the IP and UDP headers.
	DefaultCoalesceMTU = 1500 - 20 - 8
	// maxInflate bounds decompression output (the UDP maximum): any
	// frame claiming more is corrupt or hostile, not ours.
	maxInflate = 65507
)

// WireFlags annotate a v2 frame (as opposed to Flags, which annotate
// the protocol packet and ride through carriers and snapshots).
type WireFlags uint8

const (
	// WireCompressed marks a flate-compressed payload.
	WireCompressed WireFlags = 1 << iota
	// WireCarrier marks a coalesced frame of length-prefixed inner
	// packets.
	WireCarrier

	wireFlagsKnown = WireCompressed | WireCarrier
)

// V2 decoding errors.
var (
	ErrBadCRC         = errors.New("packet: CRC mismatch")
	ErrBadWireFlags   = errors.New("packet: unknown wire flags")
	ErrBadCarrier     = errors.New("packet: malformed carrier frame")
	ErrBadCompression = errors.New("packet: malformed compressed payload")
)

// castagnoli is the CRC32-C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeV2 serializes p as a v2 frame, compressing the payload when it
// is at least minCompress bytes and flate actually shrinks it
// (minCompress <= 0 disables compression). It returns the frame and
// its uncompressed wire length — equal to len(frame) when compression
// did not apply, so callers can account savings without re-deriving
// them. The frame is the call's only allocation: the compressor comes
// from a process-wide pool.
func EncodeV2(p *Packet, minCompress int) (frame []byte, rawLen int) {
	return sealMaybeCompressed(p, 0, p.Payload, minCompress), HeaderLenV2 + len(p.Payload) + TrailerLen
}

// sealMaybeCompressed seals payload under wf, first deflating it when
// it is at least minCompress bytes and deflate shrinks it.
func sealMaybeCompressed(p *Packet, wf WireFlags, payload []byte, minCompress int) []byte {
	if minCompress <= 0 || len(payload) < minCompress {
		return sealV2(p, wf, payload)
	}
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	if c := d.deflate(payload); c != nil && len(c) < len(payload) {
		// sealV2 copies c out of the pooled buffer before the deferred
		// Put hands the deflater to another caller.
		return sealV2(p, wf|WireCompressed, c)
	}
	return sealV2(p, wf, payload)
}

// sealV2 assembles a v2 frame around an already-prepared payload.
func sealV2(p *Packet, wf WireFlags, payload []byte) []byte {
	n := HeaderLenV2 + len(payload) + TrailerLen
	b := make([]byte, n)
	b[0] = Magic
	b[1] = Version2
	b[2] = byte(p.Type)
	b[3] = byte(p.Flags)
	binary.BigEndian.PutUint32(b[4:8], p.MsgID)
	binary.BigEndian.PutUint32(b[8:12], p.Seq)
	binary.BigEndian.PutUint32(b[12:16], p.Aux)
	binary.BigEndian.PutUint16(b[16:18], p.Src)
	b[18] = byte(wf)
	copy(b[HeaderLenV2:], payload)
	binary.BigEndian.PutUint32(b[n-TrailerLen:], crc32.Checksum(b[:n-TrailerLen], castagnoli))
	return b
}

// DecodeFrame parses one wire frame of either version and calls emit
// for each logical packet it carries: once for a plain frame, once per
// inner packet for a carrier. Emitted packets are borrows, valid only
// during the emit call: within one call the same *Packet is reused for
// every inner packet of a carrier, and its Payload may alias b or a
// pooled decompression buffer. Handlers that retain a packet or its
// data must copy it (see Clone). Returns without calling emit on any
// error. Steady-state decoding of a v2 frame allocates nothing: its
// decoder state comes from a process-wide pool, so concurrent callers
// are safe.
func DecodeFrame(b []byte, emit func(*Packet)) error {
	if len(b) >= 2 && b[0] == Magic && b[1] == Version2 {
		return decodeV2(b, emit)
	}
	p, err := Decode(b)
	if err != nil {
		return err
	}
	emit(p)
	return nil
}

// DecodeFrameV2 is the strict decoder for v2 sessions: it accepts only
// v2 frames, so a corrupted version byte cannot demote a frame to the
// checksum-less v1 path. Emit semantics, including the reuse of the
// emitted *Packet, match DecodeFrame.
func DecodeFrameV2(b []byte, emit func(*Packet)) error {
	if len(b) < HeaderLenV2+TrailerLen {
		return ErrTruncated
	}
	if b[0] != Magic {
		return ErrBadMagic
	}
	if b[1] != Version2 {
		return ErrBadVersion
	}
	return decodeV2(b, emit)
}

// decodeV2 decodes one v2 frame with decoder state from the pool.
func decodeV2(b []byte, emit func(*Packet)) error {
	d := decoders.Get().(*decoder)
	defer decoders.Put(d)
	return d.decodeV2(b, emit)
}

// decodeV2 runs every v2 guard on b in order, then emits its packets
// through d's scratch state.
func (d *decoder) decodeV2(b []byte, emit func(*Packet)) error {
	if len(b) < HeaderLenV2+TrailerLen {
		return ErrTruncated
	}
	body := b[:len(b)-TrailerLen]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(b[len(b)-TrailerLen:]) {
		return ErrBadCRC
	}
	if !Type(b[2]).Valid() {
		return ErrBadType
	}
	wf := WireFlags(b[18])
	if wf&^wireFlagsKnown != 0 {
		return ErrBadWireFlags
	}
	payload := body[HeaderLenV2:]
	if wf&WireCompressed != 0 {
		var err error
		if payload, err = d.inflate(payload); err != nil {
			return err
		}
	}
	if wf&WireCarrier != 0 {
		return d.decodeCarrier(payload, emit)
	}
	d.pkt = Packet{
		Type:  Type(b[2]),
		Flags: Flags(b[3]),
		MsgID: binary.BigEndian.Uint32(b[4:8]),
		Seq:   binary.BigEndian.Uint32(b[8:12]),
		Aux:   binary.BigEndian.Uint32(b[12:16]),
		Src:   binary.BigEndian.Uint16(b[16:18]),
	}
	if len(payload) > 0 {
		d.pkt.Payload = payload
	}
	emit(&d.pkt)
	return nil
}

// decodeCarrier walks a carrier payload, emitting each inner packet
// through d's one scratch Packet. The whole carrier is validated
// before the first emit so a malformed tail cannot deliver a prefix;
// the emitting pass then re-decodes inner packets that are known good.
func (d *decoder) decodeCarrier(payload []byte, emit func(*Packet)) error {
	if len(payload) == 0 {
		return ErrBadCarrier
	}
	for off := 0; off < len(payload); {
		if off+2 > len(payload) {
			return ErrBadCarrier
		}
		l := int(binary.BigEndian.Uint16(payload[off:]))
		off += 2
		if l < HeaderLen || off+l > len(payload) {
			return ErrBadCarrier
		}
		if decodeInto(payload[off:off+l], &d.pkt) != nil {
			return ErrBadCarrier
		}
		off += l
	}
	for off := 0; off < len(payload); {
		l := int(binary.BigEndian.Uint16(payload[off:]))
		off += 2
		_ = decodeInto(payload[off:off+l], &d.pkt) // validated above
		emit(&d.pkt)
		off += l
	}
	return nil
}

// Clone returns a deep copy of p: the copy's Payload shares no storage
// with the original, so it outlives the decode buffer. This is how a
// handler retains a packet emitted by DecodeFrame (or returned by
// Decode) past its borrow window.
func (p *Packet) Clone() *Packet {
	q := *p
	if len(p.Payload) > 0 {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return &q
}

// Flate state is pooled process-wide rather than kept per node: a
// BestSpeed writer is about 1.2 MB and a reader about 40 KB, so state
// pinned in each of a simulation's codecs would cost megabytes of live
// heap, while a running simulation has at most one encode and one
// decode in flight.
var (
	deflaters = sync.Pool{New: func() any {
		d := new(deflater)
		d.w, _ = flate.NewWriter(&d.buf, flate.BestSpeed) // err only for a bad level
		return d
	}}
	decoders = sync.Pool{New: func() any { return new(decoder) }}
)

// deflater is a reusable BestSpeed compressor and its output buffer.
type deflater struct {
	w   *flate.Writer
	buf bytes.Buffer
}

// deflate returns src's flate encoding, or nil if the writer failed.
// The result aliases d's buffer: it is valid until d's next use.
func (d *deflater) deflate(src []byte) []byte {
	d.buf.Reset()
	d.w.Reset(&d.buf) // output identical to a fresh writer's
	if _, err := d.w.Write(src); err != nil {
		return nil
	}
	if err := d.w.Close(); err != nil {
		return nil
	}
	return d.buf.Bytes()
}

// decoder is the reusable state of one decode call: the packet it
// emits, and the flate reader, its input, its output bound and its
// output buffer.
//
// It also memoizes its last successful inflate. A multicast frame
// reaches every receiver as the same bytes, and a simulation decodes
// all of those copies in one process, so every receiver after the
// first would otherwise repeat the same flate decode. The memo keys on
// a private copy of the whole compressed input, never a hash, so a hit
// is exact; every other guard (CRC, type, wire flags, carrier
// validation) still runs per frame before and after it.
type decoder struct {
	pkt Packet
	src bytes.Reader
	fr  io.ReadCloser
	lr  io.LimitedReader
	out bytes.Buffer

	memoIn  []byte // compressed input of the last successful inflate
	memoOut []byte // its inflated output
}

// inflate decompresses src into d's buffer, rejecting anything that
// expands past maxInflate. The result is valid until d's next use.
// Input equal to the last successful inflate's is served from the
// memo; it is copied into d's buffer like any other result, so a
// handler that scribbles on its borrowed payload cannot reach the memo.
func (d *decoder) inflate(src []byte) ([]byte, error) {
	d.out.Reset()
	if len(d.memoIn) > 0 && bytes.Equal(src, d.memoIn) {
		d.out.Write(d.memoOut)
		return d.out.Bytes(), nil
	}
	d.src.Reset(src)
	if d.fr == nil {
		d.fr = flate.NewReader(&d.src)
	} else if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return nil, ErrBadCompression
	}
	d.lr = io.LimitedReader{R: d.fr, N: maxInflate + 1}
	if _, err := d.out.ReadFrom(&d.lr); err != nil || d.out.Len() > maxInflate {
		return nil, ErrBadCompression
	}
	d.memoIn = append(d.memoIn[:0], src...)
	d.memoOut = append(d.memoOut[:0], d.out.Bytes()...)
	return d.out.Bytes(), nil
}

// IsCorrupt reports whether a decode error indicates a damaged frame
// (as opposed to a frame this code never speaks). Under a strict v2
// session every frame on the wire was sealed by a peer, so any decode
// failure is corruption; callers use this to decide what to count.
func IsCorrupt(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrBadCRC),
		errors.Is(err, ErrBadWireFlags),
		errors.Is(err, ErrBadCarrier),
		errors.Is(err, ErrBadCompression):
		return true
	}
	return false
}
