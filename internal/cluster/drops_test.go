package cluster

import (
	"testing"

	"rmcast/internal/core"
	"rmcast/internal/ipnet"
	"rmcast/internal/metrics"
	"rmcast/internal/packet"
)

// TestReceiveDropsCounted: each simulated transport adapter counts the
// datagrams it drops before an endpoint sees them — v1 frames that fail
// to decode, and frames from a source outside the session — rather than
// discarding them silently.
func TestReceiveDropsCounted(t *testing.T) {
	mx := metrics.NewSession()
	ccfg := Default(3)
	ccfg.Metrics = mx
	c, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	good := (&packet.Packet{Type: packet.TypeAck, Seq: 1}).Encode()
	garbage := []byte{0xde, 0xad}
	stranger := ipnet.Addr(99)
	members := map[ipnet.Addr]core.NodeID{0: 0, 1: 1}
	adapters := []struct {
		name      string
		recv      func(*ipnet.Datagram)
		sourceSet bool // the adapter knows its session's members
	}{
		{"nodeEnv", c.newNodeEnv(1).onDatagram, true},
		{"msEnv", c.newSessEnv(0, 1, sessionPortBase, sessionGroup(0), []int{0, 1}, members, mx, nil).onDatagram, true},
		{"sessEnv", (&sessEnv{s: &Session{c: c}}).onDatagram, false},
	}
	for _, a := range adapters {
		before := mx.Snapshot()
		a.recv(&ipnet.Datagram{Src: 0, Payload: garbage})
		a.recv(&ipnet.Datagram{Src: 0, Payload: good})
		if a.sourceSet {
			a.recv(&ipnet.Datagram{Src: stranger, Payload: good})
		}
		after := mx.Snapshot()
		if got := after.DecodeErrors - before.DecodeErrors; got != 1 {
			t.Errorf("%s: counted %d decode errors, want 1", a.name, got)
		}
		want := uint64(0)
		if a.sourceSet {
			want = 1
		}
		if got := after.UnknownSourceDrops - before.UnknownSourceDrops; got != want {
			t.Errorf("%s: counted %d unknown-source drops, want %d", a.name, got, want)
		}
	}
}
