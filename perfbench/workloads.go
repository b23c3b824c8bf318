package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"time"

	"rmcast"
	gen "rmcast/internal/workload"
)

// workload is one closed-loop transfer scenario with a single caller:
// the next transfer starts when the previous one has completed and been
// verified. README.md records why each one exists.
type workload struct {
	name  string
	shape string // what one transfer is, for the printed header
	// receivers is the group size, which the window probe tracks.
	receivers int
	// setup builds the inputs from env.seed, opens what the transfers
	// need, and completes one untimed warm-up transfer.
	setup func(ctx context.Context, env *runEnv) (runner, error)
	// figures computes the simulated figures of seed from scratch, one
	// fingerprint per input case.
	figures func(ctx context.Context, seed uint64, chk *checks) ([]fingerprint, error)
}

// runner executes the transfers of one set-up workload.
type runner interface {
	// transfer runs and verifies transfer i. A non-nil error is a
	// failed transfer; wrong bytes are also reported to the run's checks.
	transfer(ctx context.Context, i int) error
	// broken reports whether the session must be rebuilt before the
	// next transfer; rebuild does that outside the timed window.
	broken() bool
	rebuild(ctx context.Context) error
	// figures returns the simulated figures of each input case.
	figures(ctx context.Context) ([]fingerprint, error)
	close()
}

func workloads() []*workload {
	return []*workload{bulk30, smallmsgV2, fabric1k, liveUDP}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rng returns the generator for input stream k of a workload seed.
func rng(seed, k uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, k)) }

func randomBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n+8)
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	return b[:n:n]
}

// bulk30 is the paper's Figure 7 testbed transferring 2 MB messages,
// rotating through the paper's tuned configuration of each protocol.
// Sizes sit up to 16 KiB below 2 MiB, drawn from the seed, so the
// simulated figures depend on the seed.
var bulk30 = &workload{
	name:      "bulk30",
	shape:     "two switches, 100 Mbps, 30 receivers, ~2 MB messages, ACK/NAK/ring/tree in turn",
	receivers: 30,
	setup:     simSetup(bulk30Cases),
	figures:   simFigureRun(bulk30Cases),
}

func bulk30Cases(seed uint64, tr *tracer) ([]*simCase, error) {
	protos := []struct {
		label string
		cfg   rmcast.Config
	}{
		{"ack", rmcast.Config{Protocol: rmcast.ProtoACK, PacketSize: 50000, WindowSize: 5}},
		{"nak", rmcast.Config{Protocol: rmcast.ProtoNAK, PacketSize: 8000, WindowSize: 50, PollInterval: 43}},
		{"ring", rmcast.Config{Protocol: rmcast.ProtoRing, PacketSize: 8000, WindowSize: 50}},
		{"tree", rmcast.Config{Protocol: rmcast.ProtoTree, PacketSize: 8000, WindowSize: 20, TreeHeight: 15}},
	}
	defer tr.span("setup.payloads")()
	var cs []*simCase
	for k, p := range protos {
		r := rng(seed, uint64(k))
		sim := rmcast.DefaultSim(30)
		sim.Seed = r.Uint64()
		sim.Message = randomBytes(r, 2<<20-r.IntN(16<<10))
		cfg := p.cfg
		cfg.NumReceivers = 30
		cs = append(cs, &simCase{label: p.label, cfg: cfg, sim: sim})
	}
	return cs, nil
}

// smallmsgV2 is the small-message fan-out regime: 256 KB of mixed
// payload in 512-byte packets under wire format v2, so per-packet codec
// cost is the whole cost. Eight payloads from the seed take turns; their
// mix of compressible and random blocks varies, and averaging eight
// keeps the seed-to-seed spread of the figures small.
var smallmsgV2 = &workload{
	name:      "smallmsg-v2",
	shape:     "two switches, 30 receivers, 256 KB mixed payloads in 512 B packets, NAK w32/poll11, wire v2",
	receivers: 30,
	setup:     simSetup(smallmsgCases),
	figures:   simFigureRun(smallmsgCases),
}

func smallmsgCases(seed uint64, tr *tracer) ([]*simCase, error) {
	defer tr.span("setup.payloads")()
	var cs []*simCase
	for k := 0; k < 8; k++ {
		r := rng(seed, uint64(k))
		sim := rmcast.DefaultSim(30)
		sim.Seed = r.Uint64()
		sim.Message = gen.Mixed(r.Uint64(), 256<<10)
		cfg := rmcast.Config{Protocol: rmcast.ProtoNAK, NumReceivers: 30,
			PacketSize: 512, WindowSize: 32, PollInterval: 11, WireV2: true}
		cs = append(cs, &simCase{label: fmt.Sprintf("mixed%d", k), cfg: cfg, sim: sim})
	}
	return cs, nil
}

// fabric1k is a 1024-receiver gigabit fat-tree with the topology-scaled
// tree protocol on the default engine: the most simulator events, a
// flood across 32 leaf switches, and 1024 decodes of every data packet.
// Two sizes of 64 KiB minus under 1000 bytes, drawn from the seed, take
// turns.
var fabric1k = &workload{
	name:      "fabric1k",
	shape:     "fattree:4x32x33@1g, 1024 receivers, ~64 KB messages in 1000 B packets, scaled tree",
	receivers: 1024,
	setup:     simSetup(fabric1kCases),
	figures:   simFigureRun(fabric1kCases),
}

func fabric1kCases(seed uint64, tr *tracer) ([]*simCase, error) {
	end := tr.span("setup.parse_topo")
	spec, err := rmcast.ParseTopo("fattree:4x32x33@1g")
	end()
	if err != nil {
		return nil, err
	}
	defer tr.span("setup.payloads")()
	var cs []*simCase
	for k := 0; k < 2; k++ {
		r := rng(seed, uint64(k))
		sim := rmcast.DefaultSim(1024)
		sim.Topo = &spec
		sim.Seed = r.Uint64()
		sim.Message = randomBytes(r, 64<<10-r.IntN(1000))
		cfg := rmcast.ScaleForTopology(rmcast.Config{Protocol: rmcast.ProtoTree,
			NumReceivers: 1024, PacketSize: 1000, WindowSize: 20}, sim)
		cs = append(cs, &simCase{label: fmt.Sprintf("tree%d", k), cfg: cfg, sim: sim})
	}
	return cs, nil
}

// simCase is one simulated input: a protocol configuration, a testbed
// and a payload. Every repeat of a case must reproduce its figures.
type simCase struct {
	label string
	cfg   rmcast.Config
	sim   rmcast.SimConfig // sim.Message is the payload
	fp    fingerprint
	seen  bool
	// frames are copies of the frames that arrived at rank 1 during the
	// case's first traced transfer, for the codec replay probes.
	frames   [][]byte
	captured bool
}

type caseBuilder func(seed uint64, tr *tracer) ([]*simCase, error)

// simRunner runs simulated transfers; it holds no open resources.
type simRunner struct {
	cases []*simCase
	env   *runEnv
	// capturing makes the first transfer of each case copy its frames.
	capturing bool
}

func simSetup(build caseBuilder) func(context.Context, *runEnv) (runner, error) {
	return func(ctx context.Context, env *runEnv) (runner, error) {
		cs, err := build(env.seed, env.tr)
		if err != nil {
			return nil, err
		}
		r := &simRunner{cases: cs, env: env}
		end := env.tr.span("setup.warmup")
		defer end()
		if err := r.transfer(ctx, 0); err != nil {
			return nil, fmt.Errorf("warm-up transfer: %w", err)
		}
		return r, nil
	}
}

func simFigureRun(build caseBuilder) func(context.Context, uint64, *checks) ([]fingerprint, error) {
	return func(ctx context.Context, seed uint64, chk *checks) ([]fingerprint, error) {
		cs, err := build(seed, nil)
		if err != nil {
			return nil, err
		}
		r := &simRunner{cases: cs, env: &runEnv{seed: seed, chk: chk}}
		return r.figures(ctx)
	}
}

// maxCapture bounds the frames one case captures for replay.
const maxCapture = 8192

func (r *simRunner) transfer(ctx context.Context, i int) error {
	c := r.cases[i%len(r.cases)]
	defer r.env.tr.span("transfer." + c.label)()
	var mangle func(int, []byte) []byte
	if r.capturing && !c.captured {
		c.captured = true
		mangle = func(rank int, frame []byte) []byte {
			if rank == 1 && len(c.frames) < maxCapture {
				c.frames = append(c.frames, bytes.Clone(frame))
			}
			return frame
		}
	}
	_, err := r.run(ctx, c, mangle)
	return err
}

// run transfers c's payload once and verifies every delivery against
// it, independently of the simulator's own verification.
func (r *simRunner) run(ctx context.Context, c *simCase, mangle func(int, []byte) []byte) (*rmcast.SimResult, error) {
	n := c.sim.NumReceivers
	payload := c.sim.Message
	got := make([]int, n+1)
	wrong := 0
	sc := c.sim
	sc.RxMangle = mangle
	sc.OnDeliver = func(rank rmcast.NodeID, _ time.Duration, p []byte) {
		if int(rank) < 1 || int(rank) > n {
			wrong++
			return
		}
		got[rank]++
		if !bytes.Equal(p, payload) {
			wrong++
		}
	}
	endRun := r.env.tr.span("rmcast.Run")
	res, err := rmcast.Run(ctx, sc, rmcast.ProtocolSpec(c.cfg), len(payload))
	endRun()
	defer r.env.tr.span("verify")()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.label, err)
	}
	chk := r.env.chk
	if wrong > 0 {
		chk.failf("%s seed %d: %d deliveries carried wrong bytes or a bad rank", c.label, r.env.seed, wrong)
		return nil, fmt.Errorf("%s: wrong deliveries", c.label)
	}
	for rank := 1; rank <= n; rank++ {
		if got[rank] > 1 {
			chk.failf("%s seed %d: receiver %d delivered %d times", c.label, r.env.seed, rank, got[rank])
		}
		if got[rank] != 1 {
			return nil, fmt.Errorf("%s: receiver %d delivered %d times", c.label, rank, got[rank])
		}
	}
	if !res.Completed || !res.Verified {
		chk.failf("%s seed %d: all receivers delivered but Completed=%v Verified=%v",
			c.label, r.env.seed, res.Completed, res.Verified)
		return nil, fmt.Errorf("%s: not completed", c.label)
	}
	fp := fingerprintOf(res)
	if fp[fpCorrupt] != 0 {
		chk.failf("%s seed %d: %d corrupt frames on an error-free fabric", c.label, r.env.seed, fp[fpCorrupt])
	}
	if !c.seen {
		c.fp, c.seen = fp, true
	} else if fp != c.fp {
		chk.failf("%s seed %d: simulated figures changed between repeats of one input: %s",
			c.label, r.env.seed, fpDiff(c.fp, fp))
	}
	return res, nil
}

func (r *simRunner) broken() bool                      { return false }
func (r *simRunner) rebuild(ctx context.Context) error { return nil }
func (r *simRunner) close()                            {}

// figures returns each case's fingerprint, running the cases the timed
// loop never reached.
func (r *simRunner) figures(ctx context.Context) ([]fingerprint, error) {
	fps := make([]fingerprint, len(r.cases))
	for k, c := range r.cases {
		if !c.seen {
			if _, err := r.run(ctx, c, nil); err != nil {
				return nil, err
			}
		}
		fps[k] = c.fp
	}
	return fps, nil
}
