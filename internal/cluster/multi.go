package cluster

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/ethernet"
	"rmcast/internal/ipnet"
	"rmcast/internal/metrics"
	"rmcast/internal/packet"
	"rmcast/internal/sim"
	"rmcast/internal/trace"
	"rmcast/internal/unicast"
	"rmcast/internal/wire"
)

// Multi-session runs put N concurrent reliable multicast sessions — and
// optional background unicast cross-traffic — on one shared fabric in a
// single deterministic simulation. Each session gets its own UDP port
// (sessionPortBase+s), its own multicast group (sessionGroup(s), joined
// only by its members), and a nonzero SessionTag seeding its message
// ids, so sessions demultiplex cleanly at the sockets while their
// frames contend for the same switches, trunks, and host links.
// Switches flood multicast along the spanning tree regardless of group
// membership (no IGMP snooping, as on the paper's testbed), so every
// session's data stream loads every host link — the NIC group filter
// discards non-member copies after the wire paid for them. That shared
// wire is exactly the contention being measured.
const (
	// sessionPortBase is session s's UDP port (the legacy single-session
	// port stays untouched at Port).
	sessionPortBase = Port + 1
	// flowPortBase is cross-traffic flow f's UDP port.
	flowPortBase = Port + 4096
)

// sessionGroup returns session s's multicast group. Group(1) remains
// the legacy all-hosts group; sessions start at Group(2).
func sessionGroup(s int) ipnet.Addr { return ipnet.Group(2 + s) }

// MakeSessionMessage builds session sess's deterministic payload.
// Session 0's equals MakeMessage, and any two sessions' payloads differ
// in almost every byte, so a cross-session delivery can never verify.
func MakeSessionMessage(n, sess int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + 17 + sess*29)
	}
	return b
}

// SessionSpec places one multicast session on the shared fabric. Sender
// and Receivers are host indices (0..NumReceivers); the session's
// protocol rank r maps to host Receivers[r-1]. Hosts may appear in any
// number of sessions (overlapping receiver sets), each on its own port.
type SessionSpec struct {
	// Proto is the session's protocol configuration. NumReceivers is
	// forced to len(Receivers), SessionTag to the session's index+1, and
	// Absent cleared (multi-session runs have static membership).
	Proto core.Config
	// Sender is the sending host.
	Sender int
	// Receivers lists the receiving hosts, distinct and excluding Sender.
	Receivers []int
	// MsgSize is the transfer size in bytes.
	MsgSize int
	// Start delays the sender's Start by this much virtual time.
	Start time.Duration
	// Trace, when non-nil, receives the session's protocol events with
	// Node/Peer in session-rank space (0 = sender), exactly as a
	// single-session trace — the invariant checkers consume it as-is.
	Trace *trace.Buffer
	// Metrics, when non-nil, is the session's metrics sink; a fresh one
	// is created otherwise so every SessionResult carries a snapshot.
	Metrics *metrics.Session
	// OnDeliver, when non-nil, observes every completed delivery (rank,
	// time since the session's start, payload). The payload is owned by
	// the receiver; the hook must not retain or mutate it.
	OnDeliver func(rank core.NodeID, at time.Duration, payload []byte)
}

// CrossFlow is background unicast cross-traffic: Repeat back-to-back
// Size-byte reliable unicast transfers from host From to host To,
// starting at Start. Repeat is finite so the simulation drains.
type CrossFlow struct {
	From, To int
	Size     int
	Repeat   int
	Start    time.Duration
	// Cfg is the unicast stream configuration; the zero value uses
	// unicast.DefaultConfig.
	Cfg unicast.Config
}

// SessionResult is one session's outcome inside a multi-session run.
// The embedded Result is in session-rank space; its HostStats,
// SwitchStats, and BusStats stay empty (the fabric is shared — see
// MultiResult).
type SessionResult struct {
	Result
	// Start is the session's virtual start offset.
	Start time.Duration
}

// MultiResult aggregates one multi-session contention run.
type MultiResult struct {
	Sessions []SessionResult
	// CrossCompleted counts completed transfers per cross flow.
	CrossCompleted []int
	// Elapsed spans run start (the first session's Start offset is
	// measured from it) to drain or abort.
	Elapsed time.Duration
	// Completed is true when every session's sender finished.
	Completed bool

	HostStats   []ipnet.HostStats
	SwitchStats []ethernet.SwitchStats
}

// msEnv implements core.Env for one endpoint of one session (or cross
// flow) in a multi-session run: nodeEnv with a per-session port, group,
// rank-to-host mapping, and per-session metrics/trace sinks.
type msEnv struct {
	c      *Cluster
	sess   int
	rank   core.NodeID
	host   *ipnet.Host
	hostIx int
	sock   *ipnet.Socket
	ep     core.Endpoint
	port   int
	group  ipnet.Addr
	hosts  []int // rank -> host index
	rankOf map[ipnet.Addr]core.NodeID
	mx     *metrics.Session
	tr     *trace.Buffer

	codec *wire.Codec // non-nil when the session runs WireV2
}

// enableWireV2 switches the endpoint to v2 framing (see nodeEnv).
func (e *msEnv) enableWireV2(minCompress, mtu int) {
	e.codec = wire.NewCodec(minCompress, mtu, e.mx,
		func() { e.host.SetTimer(0, func() { e.codec.FlushBatch() }) },
		func(frame []byte) { e.sock.SendTo(e.group, e.port, frame) })
}

func (c *Cluster) newSessEnv(sess int, rank core.NodeID, port int, group ipnet.Addr,
	hosts []int, rankOf map[ipnet.Addr]core.NodeID, mx *metrics.Session, tr *trace.Buffer) *msEnv {
	e := &msEnv{
		c: c, sess: sess, rank: rank, hostIx: hosts[rank], port: port, group: group,
		hosts: hosts, rankOf: rankOf, mx: mx, tr: tr,
	}
	e.host = c.Hosts[e.hostIx]
	e.sock = e.host.Bind(port, e.onDatagram)
	return e
}

func (e *msEnv) setEndpoint(ep core.Endpoint) { e.ep = ep }

func (e *msEnv) onDatagram(dg *ipnet.Datagram) {
	from, ok := e.rankOf[dg.Src]
	if !ok {
		e.mx.CountUnknownSource() // not a member of this session
		return
	}
	if e.codec == nil {
		p, err := packet.Decode(dg.Payload)
		if err != nil {
			e.mx.CountDecodeError()
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

// deliver traces, counts and dispatches one decoded logical packet.
func (e *msEnv) deliver(from core.NodeID, p *packet.Packet) {
	e.trace(trace.Recv, int(from), p)
	e.mx.CountRecv(p.Type)
	if e.ep != nil {
		e.ep.OnPacket(from, p)
	}
}

func (e *msEnv) trace(dir trace.Dir, peer int, p *packet.Packet) {
	if e.tr == nil {
		return
	}
	ev := trace.Event{
		At:    e.host.Now(),
		Node:  int(e.rank),
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
		sh.logs[sh.part.HostShard[e.hostIx]].add(shardEntry{at: ev.At, sess: e.sess, rank: -1, ev: ev})
		return
	}
	e.tr.Add(ev)
}

func (e *msEnv) Now() time.Duration { return e.host.Now() }

func (e *msEnv) Send(to core.NodeID, p *packet.Packet) {
	e.trace(trace.Send, int(to), p)
	e.mx.CountSend(p.Type)
	if e.codec != nil {
		e.sock.SendTo(ipnet.Addr(e.hosts[to]), e.port, e.codec.EncodeUnicast(p))
		return
	}
	e.sock.SendTo(ipnet.Addr(e.hosts[to]), e.port, p.Encode())
}

func (e *msEnv) Multicast(p *packet.Packet) {
	e.trace(trace.SendMC, trace.Multicast, p)
	e.mx.CountSend(p.Type)
	if e.codec != nil {
		e.codec.Multicast(p)
		return
	}
	e.sock.SendTo(e.group, e.port, p.Encode())
}

func (e *msEnv) SetTimer(d time.Duration, fn func()) core.TimerID {
	return core.TimerID(e.host.SetTimer(d, fn))
}

func (e *msEnv) CancelTimer(id core.TimerID) {
	e.host.CancelTimer(sim.EventID(id))
}

func (e *msEnv) UserCopy(n int) {
	e.host.UserCopy(n, func() {})
}

// sessDeliverFn builds receiver (sess, rank)'s completion callback:
// direct emission in serial runs, a session-tagged shard-log append in
// sharded ones.
func (c *Cluster) sessDeliverFn(sess, rank, host int, emit func(rank int, at sim.Time, b []byte)) func([]byte) {
	h := c.Hosts[host]
	if c.sh == nil {
		return func(b []byte) { emit(rank, h.Now(), b) }
	}
	lg := c.sh.logs[c.sh.part.HostShard[host]]
	return func(b []byte) { lg.add(shardEntry{at: h.Now(), sess: sess, rank: rank, data: b}) }
}

// sessRun is the per-session live state inside RunMulti.
type sessRun struct {
	msg       []byte
	delivered [][]byte
	done      bool
	endAt     sim.Time
	startAt   sim.Time
	sender    *core.Sender
	recvStats []func() core.ReceiverStats
	mx        *metrics.Session
}

func validateMulti(ccfg Config, specs []SessionSpec, flows []CrossFlow) error {
	if len(specs) == 0 {
		return fmt.Errorf("cluster: RunMulti needs at least one session")
	}
	if ccfg.Faults != nil {
		return fmt.Errorf("cluster: multi-session runs do not support fault schedules")
	}
	nHosts := ccfg.NumReceivers + 1
	for si := range specs {
		sp := &specs[si]
		if sp.Proto.Protocol == core.ProtoRawUDP {
			return fmt.Errorf("cluster: session %d: sessions need a reliable protocol", si)
		}
		if sp.MsgSize <= 0 {
			return fmt.Errorf("cluster: session %d: MsgSize must be > 0", si)
		}
		if sp.Start < 0 {
			return fmt.Errorf("cluster: session %d: negative Start", si)
		}
		if sp.Sender < 0 || sp.Sender >= nHosts {
			return fmt.Errorf("cluster: session %d: sender host %d out of range [0,%d)", si, sp.Sender, nHosts)
		}
		if len(sp.Receivers) == 0 {
			return fmt.Errorf("cluster: session %d: no receivers", si)
		}
		seen := map[int]bool{sp.Sender: true}
		for _, h := range sp.Receivers {
			if h < 0 || h >= nHosts {
				return fmt.Errorf("cluster: session %d: receiver host %d out of range [0,%d)", si, h, nHosts)
			}
			if seen[h] {
				return fmt.Errorf("cluster: session %d: host %d appears twice", si, h)
			}
			seen[h] = true
		}
		if len(sp.Proto.Absent) > 0 {
			return fmt.Errorf("cluster: session %d: multi-session membership is static; Absent is not supported", si)
		}
	}
	for fi := range flows {
		f := &flows[fi]
		if f.From < 0 || f.From >= nHosts || f.To < 0 || f.To >= nHosts {
			return fmt.Errorf("cluster: flow %d: host out of range [0,%d)", fi, nHosts)
		}
		if f.From == f.To {
			return fmt.Errorf("cluster: flow %d: From and To are the same host", fi)
		}
		if f.Size <= 0 || f.Repeat <= 0 {
			return fmt.Errorf("cluster: flow %d: Size and Repeat must be > 0", fi)
		}
		if f.Start < 0 {
			return fmt.Errorf("cluster: flow %d: negative Start", fi)
		}
	}
	return nil
}

// RunMulti builds a fresh testbed from ccfg and runs every session and
// cross flow concurrently on it, to drain: the run ends when the whole
// fabric is quiet (every session finished and every flow exhausted its
// repeats), the virtual deadline passes, or the wall-clock/context
// guards trip. Serial and sharded execution produce identical traces,
// deliveries, and results — the event set is the same because nothing
// depends on observing completion mid-run.
func RunMulti(ctx context.Context, ccfg Config, specs []SessionSpec, flows []CrossFlow) (*MultiResult, error) {
	if err := validateMulti(ccfg, specs, flows); err != nil {
		return nil, err
	}
	c, err := New(ccfg)
	if err != nil {
		return nil, err
	}
	res := &MultiResult{
		Sessions:       make([]SessionResult, len(specs)),
		CrossCompleted: make([]int, len(flows)),
	}
	begin := c.Sim.Now()
	runs := make([]*sessRun, len(specs))
	emits := make([]func(rank int, at sim.Time, b []byte), len(specs))

	for si := range specs {
		si := si
		sp := &specs[si]
		mx := sp.Metrics
		if mx == nil {
			mx = metrics.NewSession()
		}
		pcfg := sp.Proto
		pcfg.NumReceivers = len(sp.Receivers)
		pcfg.SessionTag = uint32(si + 1)
		group := sessionGroup(si)
		port := sessionPortBase + si
		hosts := append([]int{sp.Sender}, sp.Receivers...)
		rankOf := make(map[ipnet.Addr]core.NodeID, len(hosts))
		for r, h := range hosts {
			rankOf[ipnet.Addr(h)] = core.NodeID(r)
			c.Hosts[h].JoinGroup(group)
		}
		sr := &sessRun{
			msg:       MakeSessionMessage(sp.MsgSize, si),
			delivered: make([][]byte, len(hosts)),
			startAt:   begin + sp.Start,
			mx:        mx,
		}
		runs[si] = sr
		envs := make([]*msEnv, len(hosts))
		for r := range hosts {
			envs[r] = c.newSessEnv(si, core.NodeID(r), port, group, hosts, rankOf, mx, sp.Trace)
		}
		if pcfg.WireV2 {
			npc, err := pcfg.Normalize()
			if err != nil {
				return nil, fmt.Errorf("cluster: session %d: %w", si, err)
			}
			if ccfg.Shards > 1 {
				return nil, fmt.Errorf("cluster: WireV2 does not support sharded execution yet; set Shards to 0")
			}
			for _, e := range envs {
				e.enableWireV2(npc.CompressThreshold, npc.CoalesceMTU)
			}
		}
		emit := func(rank int, at sim.Time, b []byte) {
			sr.delivered[rank] = b
			sr.mx.ObserveCompletion(rank, at-sr.startAt)
			if sp.OnDeliver != nil {
				sp.OnDeliver(core.NodeID(rank), at-sr.startAt, b)
			}
		}
		emits[si] = emit
		snd, err := core.NewSender(envs[0], pcfg, func() {
			sr.done = true
			sr.endAt = envs[0].host.Now()
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: session %d: %w", si, err)
		}
		snd.SetMetrics(mx)
		envs[0].setEndpoint(snd)
		sr.sender = snd
		for r := 1; r < len(hosts); r++ {
			rcv, err := core.NewReceiver(envs[r], pcfg, core.NodeID(r), c.sessDeliverFn(si, r, hosts[r], emit))
			if err != nil {
				return nil, fmt.Errorf("cluster: session %d receiver %d: %w", si, r, err)
			}
			rcv.SetMetrics(mx)
			envs[r].setEndpoint(rcv)
			sr.recvStats = append(sr.recvStats, rcv.Stats)
		}
		msg := sr.msg
		c.simForHost(sp.Sender).After(sp.Start, func() { snd.Start(msg) })
	}

	for fi := range flows {
		fi := fi
		f := &flows[fi]
		fcfg := f.Cfg
		if fcfg == (unicast.Config{}) {
			fcfg = unicast.DefaultConfig()
		}
		port := flowPortBase + fi
		hosts := []int{f.From, f.To}
		rankOf := map[ipnet.Addr]core.NodeID{ipnet.Addr(f.From): 0, ipnet.Addr(f.To): 1}
		se := c.newSessEnv(0, 0, port, 0, hosts, rankOf, nil, nil)
		re := c.newSessEnv(0, 1, port, 0, hosts, rankOf, nil, nil)
		rcv, err := unicast.NewReceiver(re, fcfg, 0, func([]byte) {})
		if err != nil {
			return nil, fmt.Errorf("cluster: flow %d: %w", fi, err)
		}
		re.setEndpoint(rcv)
		msg := MakeMessage(f.Size)
		remaining := f.Repeat
		var launch func()
		snd, err := unicast.NewSender(se, fcfg, 1, func() {
			res.CrossCompleted[fi]++
			remaining--
			if remaining > 0 {
				launch()
			}
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: flow %d: %w", fi, err)
		}
		se.setEndpoint(snd)
		launch = func() { snd.Start(msg) }
		c.simForHost(f.From).After(f.Start, launch)
	}

	if c.sh != nil {
		c.sh.onTrace = func(sess int, ev trace.Event) {
			if specs[sess].Trace != nil {
				specs[sess].Trace.Add(ev)
			}
		}
		c.sh.onDeliver = func(sess, rank int, at sim.Time, b []byte) { emits[sess](rank, at, b) }
	}

	wallStart := time.Now()
	wallExceeded := false
	canceled := false
	endNow := begin
	if c.sh != nil {
		endNow, wallExceeded, canceled = c.driveSharded(ctx, nil, begin, wallStart)
	} else {
		for steps := 0; c.Sim.Pending() > 0; steps++ {
			c.Sim.Step()
			if c.Sim.Now()-begin > c.Cfg.Deadline {
				break
			}
			if steps&4095 == 4095 {
				if time.Since(wallStart) > c.Cfg.WallLimit {
					wallExceeded = true
					break
				}
				if ctx.Err() != nil {
					canceled = true
					break
				}
			}
		}
		endNow = c.Sim.Now()
	}
	for si := range specs {
		specs[si].Trace.Flush()
	}

	res.Elapsed = endNow - begin
	res.Completed = true
	for si := range specs {
		sp := &specs[si]
		sr := runs[si]
		r := &res.Sessions[si]
		r.Start = sp.Start
		r.Protocol = sp.Proto.Protocol
		r.MsgSize = sp.MsgSize
		r.Completed = sr.done
		if !sr.done {
			res.Completed = false
		}
		if sr.done {
			r.Elapsed = sr.endAt - sr.startAt
		} else if endNow > sr.startAt {
			r.Elapsed = endNow - sr.startAt
		}
		if r.Elapsed > 0 {
			r.ThroughputMbps = float64(sp.MsgSize) * 8 / r.Elapsed.Seconds() / 1e6
		}
		r.Verified = true
		for rank := 1; rank <= len(sp.Receivers); rank++ {
			if bytes.Equal(sr.delivered[rank], sr.msg) {
				r.Delivered = append(r.Delivered, core.NodeID(rank))
			} else {
				r.Verified = false
			}
		}
		r.SenderStats = sr.sender.Stats()
		for _, f := range sr.recvStats {
			r.ReceiverStats = append(r.ReceiverStats, f())
		}
		sr.mx.SetSenderBusy(c.Hosts[sp.Sender].Stats().CPUBusy)
		r.Metrics = sr.mx.Snapshot()
	}
	for _, h := range c.Hosts {
		res.HostStats = append(res.HostStats, h.Stats())
	}
	for _, sw := range c.Switches {
		res.SwitchStats = append(res.SwitchStats, sw.Stats())
	}
	if canceled {
		return res, ctx.Err()
	}
	if !res.Completed {
		cause := fmt.Errorf("cluster: multi-session run exceeded virtual deadline %v", c.Cfg.Deadline)
		if wallExceeded {
			cause = fmt.Errorf("cluster: multi-session run exceeded wall-clock limit %v", c.Cfg.WallLimit)
		}
		return res, cause
	}
	return res, nil
}
