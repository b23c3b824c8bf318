package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"rmcast/internal/check"
	"rmcast/internal/packet"
	"rmcast/internal/sim"
	"rmcast/internal/window"
)

// layerMetric describes one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// layerMetrics lists every per-layer metric; BENCHMARK.json's per_layer
// list must match it. Counts are per transfer.
var layerMetrics = func() []layerMetric {
	var ms []layerMetric
	for _, b := range append(append([]string(nil), layers...), shareBuckets...) {
		ms = append(ms, layerMetric{b + ".cpu_share", "fraction", "lower"})
	}
	return append(ms,
		layerMetric{"runtime.gc_cpu_share", "fraction", "lower"},
		layerMetric{"ethernet.frames_flooded", "count", "lower"},
		layerMetric{"ethernet.queue_drops", "count", "lower"},
		layerMetric{"ipnet.datagrams_recv", "count", "lower"},
		layerMetric{"ipnet.socket_drops", "count", "lower"},
		layerMetric{"ipnet.reasm_drops", "count", "lower"},
		layerMetric{"ipnet.sender_cpu_busy_ms", "ms", "lower"},
		layerMetric{"core.acks_received", "count", "lower"},
		layerMetric{"core.naks_received", "count", "lower"},
		layerMetric{"core.retransmissions", "count", "lower"},
		layerMetric{"core.timeouts", "count", "lower"},
		layerMetric{"core.rx_duplicates", "count", "lower"},
		layerMetric{"core.rx_gaps", "count", "lower"},
		layerMetric{"core.first_send_share", "fraction", "higher"},
		layerMetric{"wire.compress_ratio", "fraction", "lower"},
		layerMetric{"wire.coalesce_ratio", "pkt/frame", "higher"},
		layerMetric{"wire.corrupt_frames", "count", "lower"},
		layerMetric{"wire.decode_ns_per_frame", "ns", "lower"},
		layerMetric{"wire.decode_allocs_per_frame", "count", "lower"},
		layerMetric{"wire.encode_ns_per_packet", "ns", "lower"},
		layerMetric{"window.mintracker_update_ns", "ns", "lower"},
		layerMetric{"sim.event_ns", "ns", "lower"},
		layerMetric{"live.retransmissions", "count", "lower"},
		layerMetric{"live.naks", "count", "lower"},
		layerMetric{"live.allocs_per_datagram", "count", "lower"},
		layerMetric{"trace.overhead_ratio", "ratio", "lower"},
		layerMetric{"trace.transfers_per_s", "1/s", "higher"},
		layerMetric{"trace.untraced_transfers_per_s", "1/s", "higher"},
	)
}()

// layerSet accumulates the traced run's metrics. Every metric is
// reported; one that does not apply to the workload reads 0 in the
// JSON line and n/a in the printed table.
type layerSet struct {
	m  map[string]metric
	na map[string]bool
}

func newLayerSet() *layerSet {
	s := &layerSet{m: map[string]metric{}, na: map[string]bool{}}
	for _, lm := range layerMetrics {
		s.m[lm.name] = metric{0, lm.unit}
		s.na[lm.name] = true
	}
	return s
}

func (s *layerSet) set(name string, v float64) {
	m, ok := s.m[name]
	if !ok {
		panic("perfbench: unlisted layer metric " + name)
	}
	m.Value = v
	s.m[name] = m
	delete(s.na, name)
}

// tracedRun sets the workload up once, runs an untraced half of the
// timed phase as the overhead reference, then a traced half with a CPU
// profile, spans and frame capture, then the replay probes and the
// invariant checks.
func tracedRun(ctx context.Context, w *workload, o options, chk *checks) (*result, error) {
	fmt.Fprintf(o.stdout, "workload %s seed %d, traced run: %s\n", w.name, o.seed, w.shape)
	tr := newTracer()
	env := &runEnv{seed: o.seed, chk: chk, log: o.log, tr: tr}
	endSetup := tr.span("setup")
	r, err := w.setup(ctx, env)
	endSetup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	half := seconds(o.seconds) / 2

	env.tr = nil
	base := timedPhase(ctx, r, half, env)

	env.tr = tr
	sr, _ := r.(*simRunner)
	lr, _ := r.(*liveRunner)
	if sr != nil {
		sr.capturing = true
	}
	var live0 liveCounts
	if lr != nil {
		live0 = lr.counts()
	}
	cpu0 := readCPUClasses()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("starting the CPU profile: %w", err)
	}
	ph := timedPhase(ctx, r, half, env)
	pprof.StopCPUProfile()
	cpu1 := readCPUClasses()

	ls := newLayerSet()
	shares, unmapped, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for b, v := range shares {
		ls.set(b+".cpu_share", v)
	}
	if len(unmapped) > 0 {
		fmt.Fprintf(o.stdout, "  WARNING: internal packages missing from the layer map, charged to other: %v\n", unmapped)
	}
	ls.set("runtime.gc_cpu_share", ratio(cpu1.gc-cpu0.gc, (cpu1.total-cpu1.idle)-(cpu0.total-cpu0.idle)))
	okBase := float64(base.attempted - base.failed)
	okTraced := float64(ph.attempted - ph.failed)
	tpsBase := okBase / base.wall.Seconds()
	tpsTraced := okTraced / ph.wall.Seconds()
	ls.set("trace.untraced_transfers_per_s", tpsBase)
	ls.set("trace.transfers_per_s", tpsTraced)
	ls.set("trace.overhead_ratio", ratio(tpsBase, tpsTraced))

	figs, err := r.figures(ctx)
	if err != nil {
		return nil, fmt.Errorf("simulated figures: %w", err)
	}
	checkGolden(ctx, w, o.seed, figs, chk)
	if sr != nil {
		simLayerCounts(ls, sr.cases, figs)
		if err := replayProbes(ls, sr.cases, tr); err != nil {
			return nil, err
		}
		end := tr.span("probe.window")
		ls.set("window.mintracker_update_ns", minTrackerProbe(w.receivers))
		end()
		end = tr.span("probe.sim")
		ls.set("sim.event_ns", simEventProbe(o.seed))
		end()
		end = tr.span("check.Execute")
		invariantChecks(ctx, w, sr.cases, chk, o)
		end()
	}
	if lr != nil {
		live1 := lr.counts()
		n := float64(max(ph.attempted, 1))
		ls.set("live.retransmissions", float64(live1.retrans-live0.retrans)/n)
		ls.set("live.naks", float64(live1.naks-live0.naks)/n)
		ls.set("live.allocs_per_datagram", ratio(float64(ph.allocs), float64(live1.datagrams-live0.datagrams)))
	}

	fmt.Fprintf(o.stdout, "  tracing overhead: %.4f (untraced %.3f/s over %d transfers, traced %.3f/s over %d)\n",
		ratio(tpsBase, tpsTraced), tpsBase, base.attempted, tpsTraced, ph.attempted)
	tr.print(o.stdout)
	path, err := tr.write(o.out, w.name, o.seed, ls.m)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(o.stdout, "  spans and layer metrics written to %s\n", path)
	printLayers(o.stdout, ls.m, ls.na)
	return &result{
		Attempted: base.attempted + ph.attempted,
		Failed:    base.failed + ph.failed,
		Metrics:   ls.m,
	}, nil
}

// cpuClasses are cumulative process CPU seconds from runtime/metrics.
type cpuClasses struct{ gc, idle, total float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return cpuClasses{gc: f(0), idle: f(1), total: f(2)}
}

// simLayerCounts reports the per-transfer SimResult counts: the mean
// over the workload's input cases, each of which is exact on its seed.
func simLayerCounts(ls *layerSet, cases []*simCase, figs []fingerprint) {
	mean := func(field int) float64 { return meanOf(figs, field) }
	ls.set("ethernet.frames_flooded", mean(fpFlooded))
	ls.set("ethernet.queue_drops", mean(fpQueueDrops))
	ls.set("ipnet.datagrams_recv", mean(fpDatagramsRecv))
	ls.set("ipnet.socket_drops", mean(fpSocketDrops))
	ls.set("ipnet.reasm_drops", mean(fpReasmDrops))
	ls.set("ipnet.sender_cpu_busy_ms", mean(fpSenderBusyNs)/1e6)
	ls.set("core.acks_received", mean(fpAcks))
	ls.set("core.naks_received", mean(fpNaks))
	ls.set("core.retransmissions", mean(fpRetrans))
	ls.set("core.timeouts", mean(fpTimeouts))
	ls.set("core.rx_duplicates", mean(fpRxDup))
	ls.set("core.rx_gaps", mean(fpRxGaps))
	ls.set("core.first_send_share", ratio(mean(fpDataSent), mean(fpDataSent)+mean(fpRetrans)))
	if cases[0].cfg.WireV2 {
		ls.set("wire.compress_ratio", ratio(mean(fpWireBytes), mean(fpWireRawBytes)))
		ls.set("wire.coalesce_ratio", ratio(mean(fpCoalesced), mean(fpCarrierFrames)))
		ls.set("wire.corrupt_frames", mean(fpCorrupt))
	}
}

// probeBudget is how long each timed replay probe repeats its work.
const probeBudget = 200 * time.Millisecond

// replayProbes replays the frames captured in the traced phase through
// the public decoder the session used, and the packets they carried
// through the v2 encoder.
func replayProbes(ls *layerSet, cases []*simCase, tr *tracer) error {
	defer tr.span("probe.wire")()
	var frames [][]byte
	for _, c := range cases {
		frames = append(frames, c.frames...)
	}
	if len(frames) == 0 {
		return fmt.Errorf("the traced phase captured no frames")
	}
	cfg := cases[0].cfg
	decode := packet.DecodeFrame
	if cfg.WireV2 {
		decode = packet.DecodeFrameV2
	}
	v2 := cfg
	v2.WireV2 = true
	norm, err := v2.Normalize()
	if err != nil {
		return fmt.Errorf("normalizing the v2 config: %w", err)
	}
	var pkts []*packet.Packet
	for _, f := range frames {
		if err := decode(f, func(p *packet.Packet) { pkts = append(pkts, p.Clone()) }); err != nil {
			return fmt.Errorf("replaying a captured frame: %w", err)
		}
	}
	noop := func(*packet.Packet) {}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, f := range frames {
		_ = decode(f, noop) // each frame decoded cleanly above
	}
	runtime.ReadMemStats(&m1)
	ls.set("wire.decode_allocs_per_frame", float64(m1.Mallocs-m0.Mallocs)/float64(len(frames)))
	ls.set("wire.decode_ns_per_frame", timeLoop(len(frames), func() {
		for _, f := range frames {
			_ = decode(f, noop)
		}
	}))
	ls.set("wire.encode_ns_per_packet", timeLoop(len(pkts), func() {
		for _, p := range pkts {
			packet.EncodeV2(p, norm.CompressThreshold)
		}
	}))
	return nil
}

// timeLoop repeats pass for probeBudget and returns ns per operation,
// where one pass performs ops operations.
func timeLoop(ops int, pass func()) float64 {
	runtime.GC()
	n := 0
	t0 := time.Now()
	for n == 0 || time.Since(t0) < probeBudget {
		pass()
		n++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n*max(ops, 1))
}

// minTrackerProbe times a sender's cumulative-ack bookkeeping at n
// peers: every peer advances by one packet in turn, and each update is
// followed by the minimum the window slides to.
func minTrackerProbe(n int) float64 {
	peers := make([]int, n)
	for i := range peers {
		peers[i] = i + 1
	}
	m := window.NewMinTracker(peers)
	v := uint32(0)
	return timeLoop(n, func() {
		v++
		for _, p := range peers {
			if m.Update(p, v) {
				m.Min()
			}
		}
	})
}

// simEventProbe times one At plus one Step on a simulator whose heap
// holds 1024 pending events.
func simEventProbe(seed uint64) float64 {
	const depth, batch = 1024, 4096
	s := sim.New()
	r := rand.New(rand.NewPCG(seed, 99))
	fn := func() {}
	for i := 0; i < depth; i++ {
		s.At(s.Now()+time.Duration(1+r.IntN(1e6)), fn)
	}
	return timeLoop(batch, func() {
		for i := 0; i < batch; i++ {
			s.At(s.Now()+time.Duration(1+r.IntN(1e6)), fn)
			s.Step()
		}
	})
}

// invariantChecks runs one transfer of each distinct protocol
// configuration through all applicable invariant checkers. The checkers
// verify deliveries against the default message, so the run uses it.
func invariantChecks(ctx context.Context, w *workload, cases []*simCase, chk *checks, o options) {
	done := map[string]bool{}
	for _, c := range cases {
		key := fmt.Sprintf("%+v", c.cfg)
		if done[key] {
			continue
		}
		done[key] = true
		sc := c.sim
		sc.Message = nil
		out, err := check.Execute(ctx, sc, c.cfg, len(c.sim.Message))
		if err != nil {
			chk.failf("%s %s: invariant-checked run failed: %v", w.name, c.label, err)
			continue
		}
		applied := 0
		for _, reg := range check.Registry() {
			if reg.Applies(&out.Info) {
				applied++
			}
		}
		if out.Info.RunErr != nil {
			chk.failf("%s %s: invariant-checked run ended in error: %v", w.name, c.label, out.Info.RunErr)
		}
		for _, v := range out.Violations {
			chk.failf("%s %s: invariant violated: %s", w.name, c.label, v)
		}
		fmt.Fprintf(o.stdout, "  invariants %s/%s: %d of %d checkers applied, %d violations\n",
			w.name, c.label, applied, len(check.Registry()), len(out.Violations))
	}
}
