package cluster

import (
	"fmt"

	"rmcast/internal/core"
	"rmcast/internal/ipnet"
	"rmcast/internal/packet"
	"rmcast/internal/sim"
	"rmcast/internal/wire"
	"time"
)

// Session is one reliable multicast transfer on an existing cluster
// with an arbitrary root host. Unlike the one-shot Run helper, sessions
// let any host act as the sender and several sessions (on distinct
// ports) coexist on one simulated cluster — the building block for the
// collective operations in internal/workload.
//
// Protocol ranks are mapped onto hosts: protocol node 0 is the root
// host; protocol ranks 1..N are the remaining hosts in address order.
type Session struct {
	c     *Cluster
	root  core.NodeID // host address of the root
	port  int
	pcfg  core.Config
	done  bool
	snd   *core.Sender
	rcvs  []*core.Receiver
	socks []*ipnet.Socket

	// Delivered holds each receiver host's delivered message, indexed
	// by host address (nil for the root and for undelivered hosts).
	Delivered [][]byte

	// OnDeliver, when set (before the simulator runs), is additionally
	// invoked at each receiver host's delivery instant — the hook
	// higher layers (collectives, total ordering) build on.
	OnDeliver func(host core.NodeID, msg []byte)
}

// hostForProto maps a session protocol id to a host address.
func (s *Session) hostForProto(id core.NodeID) core.NodeID {
	if id == core.SenderID {
		return s.root
	}
	// Ranks 1..N cover hosts in address order, skipping the root.
	h := core.NodeID(int(id) - 1)
	if h >= s.root {
		h++
	}
	return h
}

// protoForHost is the inverse of hostForProto.
func (s *Session) protoForHost(h core.NodeID) core.NodeID {
	if h == s.root {
		return core.SenderID
	}
	if h < s.root {
		return h + 1
	}
	return h
}

// sessEnv adapts one host to core.Env under the session's rank mapping.
type sessEnv struct {
	s    *Session
	host *ipnet.Host
	sock *ipnet.Socket
	ep   core.Endpoint

	codec *wire.Codec // non-nil under WireV2
}

func (e *sessEnv) Now() time.Duration { return e.s.c.Sim.Now() }

func (e *sessEnv) Send(to core.NodeID, p *packet.Packet) {
	if e.codec != nil {
		e.sock.SendTo(ipnet.Addr(e.s.hostForProto(to)), e.s.port, e.codec.EncodeUnicast(p))
		return
	}
	e.sock.SendTo(ipnet.Addr(e.s.hostForProto(to)), e.s.port, p.Encode())
}

func (e *sessEnv) Multicast(p *packet.Packet) {
	if e.codec != nil {
		e.codec.Multicast(p)
		return
	}
	e.sock.SendTo(e.s.c.Group(), e.s.port, p.Encode())
}

func (e *sessEnv) SetTimer(d time.Duration, fn func()) core.TimerID {
	return core.TimerID(e.host.SetTimer(d, fn))
}

func (e *sessEnv) CancelTimer(id core.TimerID) { e.host.CancelTimer(sim.EventID(id)) }

func (e *sessEnv) UserCopy(n int) { e.host.UserCopy(n, func() {}) }

func (e *sessEnv) onDatagram(dg *ipnet.Datagram) {
	from := e.s.protoForHost(core.NodeID(dg.Src))
	if e.codec == nil {
		p, err := packet.Decode(dg.Payload)
		if err != nil {
			e.s.c.Cfg.Metrics.CountDecodeError()
			return
		}
		e.deliver(from, p)
		return
	}
	// The codec counts a frame that fails any v2 guard as corrupt; such
	// a frame emitted nothing and is dropped whole.
	if err := e.codec.Decode(dg.Payload, func(p *packet.Packet) { e.deliver(from, p) }); err != nil {
		return
	}
}

func (e *sessEnv) deliver(from core.NodeID, p *packet.Packet) {
	if e.ep != nil {
		e.ep.OnPacket(from, p)
	}
}

// NewSession prepares a transfer of msg from root to every other host
// on port. Run the cluster's simulator (or RunToCompletion) afterwards.
func NewSession(c *Cluster, root core.NodeID, port int, pcfg core.Config, msg []byte) (*Session, error) {
	if int(root) >= len(c.Hosts) {
		return nil, fmt.Errorf("cluster: root %d out of range", root)
	}
	pcfg.NumReceivers = len(c.Hosts) - 1
	s := &Session{
		c:         c,
		root:      root,
		port:      port,
		pcfg:      pcfg,
		Delivered: make([][]byte, len(c.Hosts)),
	}
	npc := pcfg
	if pcfg.WireV2 {
		var err error
		if npc, err = pcfg.Normalize(); err != nil {
			return nil, err
		}
	}
	for h := range c.Hosts {
		h := core.NodeID(h)
		env := &sessEnv{s: s, host: c.Hosts[h]}
		env.sock = c.Hosts[h].Bind(port, env.onDatagram)
		if pcfg.WireV2 {
			env := env
			env.codec = wire.NewCodec(npc.CompressThreshold, npc.CoalesceMTU, c.Cfg.Metrics,
				func() { env.host.SetTimer(0, func() { env.codec.FlushBatch() }) },
				func(frame []byte) { env.sock.SendTo(c.Group(), port, frame) })
		}
		s.socks = append(s.socks, env.sock)
		if h == root {
			snd, err := core.NewSender(env, pcfg, func() { s.done = true })
			if err != nil {
				return nil, err
			}
			env.ep = snd
			s.snd = snd
			c.Sim.After(0, func() { snd.Start(msg) })
		} else {
			h := h
			rcv, err := core.NewReceiver(env, pcfg, s.protoForHost(h), func(b []byte) {
				s.Delivered[h] = b
				if s.OnDeliver != nil {
					s.OnDeliver(h, b)
				}
			})
			if err != nil {
				return nil, err
			}
			env.ep = rcv
			s.rcvs = append(s.rcvs, rcv)
		}
	}
	return s, nil
}

// Done reports whether the root has completed the transfer.
func (s *Session) Done() bool { return s.done }

// Close unbinds the session's sockets so the port can be reused.
func (s *Session) Close() {
	for _, sock := range s.socks {
		sock.Close()
	}
}

// RunToCompletion drives the cluster simulator until the session
// finishes or the deadline elapses, returning the elapsed virtual time.
func (s *Session) RunToCompletion() (time.Duration, error) {
	begin := s.c.Sim.Now()
	for s.c.Sim.Pending() > 0 && !s.done {
		s.c.Sim.Step()
		if s.c.Sim.Now()-begin > s.c.Cfg.Deadline {
			return s.c.Sim.Now() - begin, fmt.Errorf("cluster: session from root %d exceeded deadline", s.root)
		}
	}
	if !s.done {
		return s.c.Sim.Now() - begin, fmt.Errorf("cluster: session from root %d stalled (no pending events)", s.root)
	}
	return s.c.Sim.Now() - begin, nil
}
