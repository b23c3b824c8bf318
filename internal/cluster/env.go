package cluster

import (
	"time"

	"rmcast/internal/core"
	"rmcast/internal/ipnet"
	"rmcast/internal/packet"
	"rmcast/internal/sim"
	"rmcast/internal/trace"
	"rmcast/internal/wire"
)

// nodeEnv implements core.Env for one simulated host: protocol sends
// become UDP datagrams through the host's socket (paying syscall and
// copy costs on the host CPU), timers run on the host, and packets
// arriving on the socket are decoded and dispatched to the endpoint.
type nodeEnv struct {
	c    *Cluster
	id   core.NodeID
	host *ipnet.Host
	sock *ipnet.Socket
	ep   core.Endpoint

	// codec frames this node's traffic in wire format v2; nil leaves
	// the v1 path below byte-identical to the golden traces.
	codec *wire.Codec
}

// newNodeEnv binds the endpoint socket on the host for node id. Call
// setEndpoint before any packet can arrive.
func (c *Cluster) newNodeEnv(id core.NodeID) *nodeEnv {
	e := &nodeEnv{c: c, id: id, host: c.Hosts[id]}
	e.sock = e.host.Bind(Port, e.onDatagram)
	return e
}

func (e *nodeEnv) setEndpoint(ep core.Endpoint) { e.ep = ep }

// enableWireV2 switches the node to v2 framing: coalescible data
// packets queue in the codec's batcher and leave as carrier frames on a
// zero-delay timer (after the current event, same virtual time), and
// arriving frames decode strictly — any damaged frame is counted and
// dropped whole.
func (e *nodeEnv) enableWireV2(minCompress, mtu int) {
	e.codec = wire.NewCodec(minCompress, mtu, e.c.Cfg.Metrics,
		func() { e.host.SetTimer(0, func() { e.codec.FlushBatch() }) },
		func(frame []byte) { e.sock.SendTo(e.c.Group(), Port, frame) })
}

func (e *nodeEnv) onDatagram(dg *ipnet.Datagram) {
	frame := dg.Payload
	if mangle := e.c.Cfg.RxMangle; mangle != nil {
		if frame = mangle(int(e.id), frame); frame == nil {
			return
		}
	}
	mx := e.c.Cfg.Metrics
	from := core.NodeID(dg.Src)
	if int(from) < 0 || int(from) >= len(e.c.Hosts) {
		mx.CountUnknownSource()
		return
	}
	if e.codec == nil {
		p, err := packet.Decode(frame)
		if err != nil {
			mx.CountDecodeError()
			return
		}
		e.deliver(from, p)
		return
	}
	// The codec counts a frame that fails any v2 guard as corrupt; such
	// a frame emitted nothing and is dropped whole.
	if err := e.codec.Decode(frame, func(p *packet.Packet) { e.deliver(from, p) }); err != nil {
		return
	}
}

// deliver traces, counts and dispatches one decoded logical packet.
func (e *nodeEnv) deliver(from core.NodeID, p *packet.Packet) {
	e.trace(trace.Recv, int(from), p)
	e.c.Cfg.Metrics.CountRecv(p.Type)
	if e.ep != nil {
		e.ep.OnPacket(from, p)
	}
}

// trace records one protocol event if tracing is enabled. Timestamps
// come from the node's own host clock — identical to the global clock
// in serial runs — and sharded runs route the event through the node's
// shard log, from which the coordinator merges the global stream in
// serial order at the next window barrier.
func (e *nodeEnv) trace(dir trace.Dir, peer int, p *packet.Packet) {
	buf := e.c.Cfg.Trace
	if buf == nil {
		return
	}
	ev := trace.Event{
		At:    e.host.Now(),
		Node:  int(e.id),
		Dir:   dir,
		Peer:  peer,
		Type:  p.Type,
		Flags: p.Flags,
		MsgID: p.MsgID,
		Seq:   p.Seq,
		Aux:   p.Aux,
		Len:   len(p.Payload),
	}
	if sh := e.c.sh; sh != nil {
		sh.logs[sh.part.HostShard[int(e.id)]].add(shardEntry{at: ev.At, rank: -1, ev: ev})
		return
	}
	buf.Add(ev)
}

func (e *nodeEnv) Now() time.Duration { return e.host.Now() }

func (e *nodeEnv) Send(to core.NodeID, p *packet.Packet) {
	e.trace(trace.Send, int(to), p)
	e.c.Cfg.Metrics.CountSend(p.Type)
	if e.codec != nil {
		e.sock.SendTo(e.c.HostAddr(to), Port, e.codec.EncodeUnicast(p))
		return
	}
	enc := p.Encode()
	if e.c.Cfg.CountWire {
		e.c.Cfg.Metrics.CountWireFrame(len(enc), len(enc), 1, false)
	}
	e.sock.SendTo(e.c.HostAddr(to), Port, enc)
}

func (e *nodeEnv) Multicast(p *packet.Packet) {
	e.trace(trace.SendMC, trace.Multicast, p)
	e.c.Cfg.Metrics.CountSend(p.Type)
	if e.codec != nil {
		e.codec.Multicast(p)
		return
	}
	enc := p.Encode()
	if e.c.Cfg.CountWire {
		e.c.Cfg.Metrics.CountWireFrame(len(enc), len(enc), 1, false)
	}
	e.sock.SendTo(e.c.Group(), Port, enc)
}

func (e *nodeEnv) SetTimer(d time.Duration, fn func()) core.TimerID {
	return core.TimerID(e.host.SetTimer(d, fn))
}

func (e *nodeEnv) CancelTimer(id core.TimerID) {
	e.host.CancelTimer(sim.EventID(id))
}

func (e *nodeEnv) UserCopy(n int) {
	e.host.UserCopy(n, func() {})
}
