package packet

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// freshDeflate compresses src with a brand-new BestSpeed writer: the
// reference the pooled, reset writers must reproduce byte for byte.
func freshDeflate(t testing.TB, src []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mixedPayloads returns text, runs, random bytes and text/random
// mixtures at sizes from below the compression threshold to past a
// flate block (64 KiB).
func mixedPayloads() [][]byte {
	rng := rand.New(rand.NewSource(7))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	text := func(n int) []byte {
		return []byte(strings.Repeat("seq=42 ack window advanced; ", n/28+1)[:n])
	}
	var out [][]byte
	for _, n := range []int{64, 128, 129, 512, 1400, 4096, 70000} {
		out = append(out, text(n), random(n), make([]byte, n))
		mixed := append(text(n/2), random(n-n/2)...)
		out = append(out, mixed)
	}
	return out
}

// TestV2EncodeMatchesFreshWriter: EncodeV2 through a pooled, reset
// writer emits exactly the frame a fresh flate.Writer would produce,
// whatever the pooled writer compressed before.
func TestV2EncodeMatchesFreshWriter(t *testing.T) {
	payloads := mixedPayloads()
	for pass := 0; pass < 2; pass++ {
		for i := range payloads {
			if pass == 1 {
				i = len(payloads) - 1 - i // a different predecessor for each
			}
			p := &Packet{Type: TypeData, MsgID: 9, Seq: uint32(i), Aux: 77, Payload: payloads[i]}
			got, raw := EncodeV2(p, DefaultCompressThreshold)
			want := sealV2(p, 0, p.Payload)
			if len(p.Payload) >= DefaultCompressThreshold {
				if c := freshDeflate(t, p.Payload); len(c) < len(p.Payload) {
					want = sealV2(p, WireCompressed, c)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("pass %d payload %d (%d bytes): pooled encoding differs from a fresh writer's", pass, i, len(p.Payload))
			}
			if raw != HeaderLenV2+len(p.Payload)+TrailerLen {
				t.Fatalf("payload %d: rawLen %d", i, raw)
			}
		}
	}
}

// TestV2BadFlateThenGoodFrame: a frame with a valid CRC whose
// compressed payload is not a flate stream fails with
// ErrBadCompression and emits nothing, and the decoder state it
// leaves in the pool still inflates the next good frame correctly.
func TestV2BadFlateThenGoodFrame(t *testing.T) {
	good := v2Corpus()["compressed"]
	want := decodeOne(t, good)
	stream := freshDeflate(t, []byte(strings.Repeat("compressible! ", 30)))
	bad := map[string][]byte{
		"garbage":   []byte("not a flate stream at all"),
		"truncated": stream[:len(stream)/2],
		"bad-block": append([]byte{0x07}, stream[1:]...), // reserved block type
	}
	for name, payload := range bad {
		frame := sealV2(&Packet{Type: TypeData, Seq: 6}, WireCompressed, payload)
		if err := DecodeFrameV2(frame, func(*Packet) {
			t.Fatalf("%s: emitted a packet", name)
		}); err != ErrBadCompression {
			t.Fatalf("%s: err = %v, want ErrBadCompression", name, err)
		}
		got := decodeOne(t, good)
		if len(got) != 1 || !samePacket(got[0], want[0]) {
			t.Fatalf("%s: the next good frame decoded wrong: %+v", name, got)
		}
	}
}

// TestV2ConcurrentCodec: goroutines encoding, coalescing and decoding
// at once (as parallel simulations do) each get back exactly their own
// packets. Run under -race it also proves the pools hand state to one
// goroutine at a time.
func TestV2ConcurrentCodec(t *testing.T) {
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs <- codecWorker(w, rounds)
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// codecWorker round-trips rounds of worker-specific plain and carrier
// frames, each decoded three times, returning the first mismatch. Each
// carrier's second inner packet has no payload, so a scratch Packet
// that kept its previous payload would show.
func codecWorker(w, rounds int) error {
	var frames [][]byte
	b := &Batcher{MinCompress: DefaultCompressThreshold, Emit: func(f []byte, _, _ int) {
		frames = append(frames, f)
	}}
	for r := 0; r < rounds; r++ {
		var want []*Packet
		frames = frames[:0]
		for i := 0; i < 6; i++ {
			text := fmt.Sprintf("worker %d round %d packet %d; ", w, r, i)
			p := &Packet{Type: TypeData, Src: uint16(w), MsgID: uint32(r), Seq: uint32(i)}
			if i%3 != 1 {
				p.Payload = []byte(strings.Repeat(text, 4+i))
			}
			want = append(want, p.Clone())
			if i%3 == 2 {
				b.Flush()
				f, _ := EncodeV2(p, DefaultCompressThreshold)
				frames = append(frames, f)
			} else {
				b.Add(p)
			}
		}
		b.Flush()
		var got []*Packet
		for _, f := range frames {
			var first []*Packet
			// Decode each frame as three receivers would, scribbling
			// over the borrowed payloads: the repeats may be served by
			// the inflate memo and must match the first decode.
			for rep := 0; rep < 3; rep++ {
				var these []*Packet
				if err := DecodeFrameV2(f, func(p *Packet) {
					these = append(these, p.Clone())
					for i := range p.Payload {
						p.Payload[i] ^= 0x5A
					}
				}); err != nil {
					return fmt.Errorf("worker %d round %d: %v", w, r, err)
				}
				if rep == 0 {
					first = these
				} else if !samePackets(these, first) {
					return fmt.Errorf("worker %d round %d: decode %d of a frame differs from the first", w, r, rep+1)
				}
			}
			got = append(got, first...)
		}
		if len(got) != len(want) {
			return fmt.Errorf("worker %d round %d: got %d packets, want %d", w, r, len(got), len(want))
		}
		for i := range want {
			if !samePacket(got[i], want[i]) {
				return fmt.Errorf("worker %d round %d packet %d: got %+v, want %+v", w, r, i, got[i], want[i])
			}
		}
	}
	return nil
}

// TestV2DecodeSteadyStateAllocs pins the pooled codec's steady state:
// decoding a compressed carrier allocates nothing, whether it inflates
// or is served by the inflate memo, and encoding a compressible packet
// allocates only the frame it returns.
func TestV2DecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	a, b := v2Corpus()["carrier-compressed"], carrierFrame(DefaultCompressThreshold, 20)
	for _, frame := range [][]byte{a, b} {
		if WireFlags(frame[HeaderLenV2-1]) != WireCarrier|WireCompressed {
			t.Fatalf("corpus frame has wire flags %#x, want a compressed carrier", frame[HeaderLenV2-1])
		}
	}
	emitted := 0
	emit := func(*Packet) { emitted++ }
	decode := func(frame []byte) {
		if err := DecodeFrameV2(frame, emit); err != nil {
			t.Fatal(err)
		}
	}
	// Two carriers in turn miss the one-entry memo, so each inflates.
	if n := testing.AllocsPerRun(100, func() { decode(a); decode(b) }); n != 0 {
		t.Fatalf("inflating compressed carriers allocated %.1f objects per pair, want 0", n)
	}
	// One carrier again and again, as a multicast's receivers see it,
	// hits the memo.
	if n := testing.AllocsPerRun(100, func() { decode(a) }); n != 0 {
		t.Fatalf("a memo hit allocated %.1f objects, want 0", n)
	}
	if emitted == 0 {
		t.Fatal("measured loops emitted nothing")
	}
	p := &Packet{Type: TypeData, Seq: 3, Payload: []byte(strings.Repeat("compressible! ", 30))}
	if a := testing.AllocsPerRun(100, func() { EncodeV2(p, DefaultCompressThreshold) }); a > 1 {
		t.Fatalf("EncodeV2 allocated %.1f objects, want at most 1 (the frame)", a)
	}
}

// frameSink keeps the benchmarked encodes observable.
var frameSink []byte

func BenchmarkEncodeV2(b *testing.B) {
	p := &Packet{Type: TypeData, Seq: 3, Payload: []byte(strings.Repeat("seq=42 ack window advanced; ", 18))}
	for _, bc := range []struct {
		name string
		min  int
	}{{"plain", 0}, {"compressed", DefaultCompressThreshold}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frameSink, _ = EncodeV2(p, bc.min)
			}
		})
	}
}

// BenchmarkDecodeFrameV2 measures one receiver's decode. The
// carrier-compressed case alternates two carriers, so every decode
// misses the inflate memo and runs flate; the fanout30 case decodes
// each of those carriers 30 times per op, as a multicast's 30
// receivers do, so one decode in 30 inflates and the rest hit.
func BenchmarkDecodeFrameV2(b *testing.B) {
	corpus := v2Corpus()
	carriers := [][]byte{corpus["carrier-compressed"], carrierFrame(DefaultCompressThreshold, 20)}
	emit := func(*Packet) {}
	for _, bc := range []struct {
		name   string
		frames [][]byte
		fanout int
	}{
		{"plain", [][]byte{corpus["plain"]}, 1},
		{"carrier-compressed", carriers, 1},
		{"carrier-compressed-fanout30", carriers, 30},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.frames[0]) * bc.fanout))
			for i := 0; i < b.N; i++ {
				frame := bc.frames[i%len(bc.frames)]
				for r := 0; r < bc.fanout; r++ {
					if err := DecodeFrameV2(frame, emit); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
