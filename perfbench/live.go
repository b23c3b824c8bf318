package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"rmcast"
	"rmcast/internal/live"
	"rmcast/internal/packet"
	"rmcast/internal/trace"
)

// liveUDP is real UDP multicast through NewLiveNode over the host's
// loopback interface: a sender and one receiver in this process, so the
// live event loop, the UDP readers and the kernel sockets are measured.
// Link rate and wire latency are not.
var liveUDP = &workload{
	name:      "live-udp",
	shape:     "real UDP multicast over loopback, sender + 1 receiver, 1 MB messages, NAK 8000 B/w16, wire v1",
	receivers: 1,
	setup:     liveSetup,
	figures:   liveFigures,
}

const (
	// liveDeadline bounds one transfer; typical transfers take tens of
	// milliseconds. A missed deadline is a failed transfer.
	liveDeadline = 2 * time.Second
	// liveReady bounds discovery when a session is opened.
	liveReady = 10 * time.Second
	livePool  = 4
)

// liveMsgSize is 1 MiB minus up to 16 KiB, drawn from the seed, so the
// twin's figures depend on the seed.
func liveMsgSize(seed uint64) int { return 1<<20 - rng(seed, 99).IntN(16<<10) }

func liveConfig() rmcast.Config {
	return rmcast.Config{Protocol: rmcast.ProtoNAK, NumReceivers: 1,
		PacketSize: 8000, WindowSize: 16, PollInterval: 14}
}

// liveRunner holds one open sender/receiver pair.
type liveRunner struct {
	env      *runEnv
	payloads [][]byte
	tx, rx   *rmcast.LiveNode
	bad      bool
	// closed sums the metrics of sessions already closed, so the counts
	// stay cumulative across rebuilds.
	closed liveCounts
}

// liveCounts are the live-layer counters the traced run reports.
type liveCounts struct{ retrans, naks, datagrams uint64 }

func liveSetup(ctx context.Context, env *runEnv) (runner, error) {
	end := env.tr.span("setup.payloads")
	r := &liveRunner{env: env}
	for k := 0; k < livePool; k++ {
		r.payloads = append(r.payloads, randomBytes(rng(env.seed, uint64(k)), liveMsgSize(env.seed)))
	}
	end()
	if err := r.open(ctx); err != nil {
		return nil, err
	}
	end = env.tr.span("setup.warmup")
	defer end()
	if err := r.transfer(ctx, 0); err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up transfer: %w", err)
	}
	return r, nil
}

// open starts a fresh sender/receiver pair on a group address no
// earlier session of this process used, and waits for discovery.
func (r *liveRunner) open(ctx context.Context) error {
	defer r.env.tr.span("setup.open_sockets")()
	r.env.attempt++
	k := int(r.env.seed%97)*64 + r.env.attempt%64
	group := fmt.Sprintf("239.77.%d.%d:%d", 100+k%100, 1+k%250, 20000+k%20000)
	cfg := liveConfig()
	tx, err := rmcast.NewLiveNode(rmcast.LiveConfig{Group: group, Rank: 0, Protocol: cfg})
	if err != nil {
		return fmt.Errorf("opening sender: %w", err)
	}
	rx, err := rmcast.NewLiveNode(rmcast.LiveConfig{Group: group, Rank: 1, Protocol: cfg})
	if err != nil {
		tx.Close()
		return fmt.Errorf("opening receiver: %w", err)
	}
	r.tx, r.rx, r.bad = tx, rx, false
	end := r.env.tr.span("setup.wait_ready")
	defer end()
	rctx, cancel := context.WithTimeout(ctx, liveReady)
	defer cancel()
	if err := tx.WaitReady(rctx, 1); err != nil {
		r.close()
		return err
	}
	if err := rx.WaitReady(rctx, 1); err != nil {
		r.close()
		return err
	}
	return nil
}

type recvResult struct {
	msg []byte
	err error
}

func (r *liveRunner) transfer(ctx context.Context, i int) error {
	defer r.env.tr.span("transfer")()
	msg := r.payloads[i%len(r.payloads)]
	tctx, cancel := context.WithTimeout(ctx, liveDeadline)
	defer cancel()
	ch := make(chan recvResult, 1)
	go func() {
		got, err := r.rx.Recv(tctx)
		ch <- recvResult{got, err}
	}()
	end := r.env.tr.span("live.Send")
	sendErr := r.tx.Send(tctx, msg)
	end()
	end = r.env.tr.span("live.Recv")
	rcv := <-ch
	end()
	defer r.env.tr.span("verify")()
	if err := errors.Join(sendErr, rcv.err); err != nil {
		r.bad = true
		return err
	}
	if !bytes.Equal(rcv.msg, msg) {
		r.env.chk.failf("live-udp seed %d transfer %d: received %d bytes that differ from the %d sent",
			r.env.seed, i, len(rcv.msg), len(msg))
		r.bad = true
		return errors.New("wrong bytes")
	}
	return nil
}

func (r *liveRunner) broken() bool { return r.bad }

// rebuild replaces a session whose transfer failed: after a missed
// deadline the old sender refuses further sends.
func (r *liveRunner) rebuild(ctx context.Context) error {
	r.close()
	return r.open(ctx)
}

func (r *liveRunner) close() {
	r.closed = r.counts()
	if r.tx != nil {
		r.tx.Close()
	}
	if r.rx != nil {
		r.rx.Close()
	}
	r.tx, r.rx = nil, nil
}

// counts sums the sender's and receiver's counters over every session
// this runner opened.
func (r *liveRunner) counts() liveCounts {
	c := r.closed
	for _, n := range []*rmcast.LiveNode{r.tx, r.rx} {
		if n == nil {
			continue
		}
		m := n.Metrics()
		c.retrans += m.Retransmissions
		c.naks += m.NaksSent
		for _, v := range m.Sent {
			c.datagrams += v
		}
		for _, v := range m.Received {
			c.datagrams += v
		}
	}
	return c
}

func (r *liveRunner) figures(ctx context.Context) ([]fingerprint, error) {
	return liveFigures(ctx, r.env.seed, r.env.chk)
}

// liveFigures runs the same live node code, configuration and message
// size over the deterministic in-process loopback network, with the
// seed driving per-datagram jitter. Its virtual completion time and
// bytes sent are the live workload's simulated figures.
func liveFigures(ctx context.Context, seed uint64, chk *checks) ([]fingerprint, error) {
	res, err := live.RunLoopScenario(live.LoopScenario{
		Net:      live.LoopConfig{Seed: seed, Jitter: 20 * time.Microsecond},
		Protocol: liveConfig(),
		MsgSize:  liveMsgSize(seed),
	})
	if err != nil {
		return nil, err
	}
	if !res.SendDone || res.SendErr != nil || len(res.Delivered) != 1 {
		chk.failf("live-udp loopback twin seed %d: done=%v err=%v delivered=%v",
			seed, res.SendDone, res.SendErr, res.Delivered)
		return nil, errors.New("loopback twin did not deliver")
	}
	var f fingerprint
	f[fpElapsedNs] = int64(res.Elapsed)
	for _, e := range res.Trace {
		if e.Dir == trace.Send || e.Dir == trace.SendMC {
			f[fpSentBytes] += int64(packet.HeaderLen + e.Len)
		}
	}
	ss := res.SenderStats
	f[fpAcks] = int64(ss.AcksReceived)
	f[fpNaks] = int64(ss.NaksReceived)
	f[fpRetrans] = int64(ss.Retransmissions)
	f[fpTimeouts] = int64(ss.Timeouts)
	f[fpDataSent] = int64(ss.DataSent)
	return []fingerprint{f}, nil
}
