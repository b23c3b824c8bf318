package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"rmcast"
)

// A fingerprint is the exact simulated outcome of one transfer: virtual
// completion time, bytes sent, and the per-layer counts. It is a pure
// function of the inputs, so any program change that alters protocol
// behaviour changes it.
type fingerprint [fpLen]int64

const (
	fpElapsedNs = iota
	fpSentBytes
	fpFlooded
	fpQueueDrops
	fpDatagramsRecv
	fpSocketDrops
	fpReasmDrops
	fpSenderBusyNs
	fpAcks
	fpNaks
	fpRetrans
	fpTimeouts
	fpDataSent
	fpRxDup
	fpRxGaps
	fpWireBytes
	fpWireRawBytes
	fpCarrierFrames
	fpCoalesced
	fpCorrupt
	fpLen
)

var fpNames = [fpLen]string{
	"elapsed_ns", "sent_bytes", "frames_flooded", "queue_drops",
	"datagrams_recv", "socket_drops", "reasm_drops", "sender_cpu_busy_ns",
	"acks_received", "naks_received", "retransmissions", "timeouts",
	"data_sent", "rx_duplicates", "rx_gaps", "wire_bytes",
	"wire_raw_bytes", "carrier_frames", "coalesced_packets", "corrupt_frames",
}

func fingerprintOf(res *rmcast.SimResult) fingerprint {
	var f fingerprint
	f[fpElapsedNs] = int64(res.Elapsed)
	for _, h := range res.HostStats {
		f[fpSentBytes] += int64(h.SentBytes)
		f[fpDatagramsRecv] += int64(h.RecvDatagrams)
		f[fpSocketDrops] += int64(h.SocketDrops)
		f[fpReasmDrops] += int64(h.ReasmDrops)
	}
	if len(res.HostStats) > 0 {
		f[fpSenderBusyNs] = int64(res.HostStats[0].CPUBusy)
	}
	for _, s := range res.SwitchStats {
		f[fpFlooded] += int64(s.Flooded)
		f[fpQueueDrops] += int64(s.QueueDrops)
	}
	ss := res.SenderStats
	f[fpAcks] = int64(ss.AcksReceived)
	f[fpNaks] = int64(ss.NaksReceived)
	f[fpRetrans] = int64(ss.Retransmissions)
	f[fpTimeouts] = int64(ss.Timeouts)
	f[fpDataSent] = int64(ss.DataSent)
	for _, rs := range res.ReceiverStats {
		f[fpRxDup] += int64(rs.Duplicates)
		f[fpRxGaps] += int64(rs.Gaps)
	}
	m := res.Metrics
	f[fpWireBytes] = int64(m.WireBytes)
	f[fpWireRawBytes] = int64(m.WireRawBytes)
	f[fpCarrierFrames] = int64(m.CarrierFrames)
	f[fpCoalesced] = int64(m.CoalescedPackets)
	f[fpCorrupt] = int64(m.CorruptFrames)
	return f
}

// fpDiff names the fields where two fingerprints differ.
func fpDiff(want, got fingerprint) string {
	var parts []string
	for i := range want {
		if want[i] != got[i] {
			parts = append(parts, fmt.Sprintf("%s %d -> %d", fpNames[i], want[i], got[i]))
		}
	}
	return strings.Join(parts, ", ")
}

// meanOf averages one fingerprint field over the cases.
func meanOf(fps []fingerprint, field int) float64 {
	if len(fps) == 0 {
		return 0
	}
	var s float64
	for _, f := range fps {
		s += float64(f[field])
	}
	return s / float64(len(fps))
}

// simFigures returns the end-to-end simulated figures: mean virtual
// completion time in ms and mean bytes sent per transfer in KiB.
func simFigures(fps []fingerprint) (float64, float64) {
	return meanOf(fps, fpElapsedNs) / 1e6, meanOf(fps, fpSentBytes) / 1024
}

// golden holds the simulated figures recorded for seeds 0..N-1 of every
// workload. Regenerate it with -record-golden only when a change is
// meant to alter protocol behaviour.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Fields []string                            `json:"fields"`
	Seeds  map[string]map[string][]fingerprint `json:"seeds"` // workload → seed → cases
}

// referenceSeed is checked on every run whose own seed has no record.
const referenceSeed = 1

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if strings.Join(g.Fields, ",") != strings.Join(fpNames[:], ",") {
		return nil, fmt.Errorf("golden.json: fields %v do not match %v", g.Fields, fpNames)
	}
	return &g, nil
}

// checkGolden compares the run's simulated figures with the ones
// recorded for its seed. For a seed without a record it recomputes and
// compares the reference seed's figures instead, so every run checks
// protocol behaviour against a recorded value.
func checkGolden(ctx context.Context, w *workload, seed uint64, figs []fingerprint, chk *checks) {
	g, err := loadGolden()
	if err != nil {
		chk.failf("%v", err)
		return
	}
	rec := g.Seeds[w.name]
	if want, ok := rec[strconv.FormatUint(seed, 10)]; ok {
		compareFigures(w.name, seed, want, figs, chk)
		return
	}
	want, ok := rec[strconv.FormatUint(referenceSeed, 10)]
	if !ok {
		chk.failf("golden.json has no figures for %s seed %d", w.name, referenceSeed)
		return
	}
	got, err := w.figures(ctx, referenceSeed, chk)
	if err != nil {
		chk.failf("%s reference seed %d: %v", w.name, referenceSeed, err)
		return
	}
	compareFigures(w.name, referenceSeed, want, got, chk)
}

func compareFigures(name string, seed uint64, want, got []fingerprint, chk *checks) {
	if len(want) != len(got) {
		chk.failf("%s seed %d: %d cases recorded, %d run", name, seed, len(want), len(got))
		return
	}
	for k := range want {
		if want[k] != got[k] {
			chk.failf("%s seed %d case %d: simulated figures differ from the recorded ones: %s",
				name, seed, k, fpDiff(want[k], got[k]))
		}
	}
}

// recordGolden writes the figures of seeds 0..n-1 of every workload.
func recordGolden(ctx context.Context, n int, path string, log io.Writer) error {
	g := goldenFile{Fields: fpNames[:], Seeds: map[string]map[string][]fingerprint{}}
	chk := &checks{}
	for _, w := range workloads() {
		g.Seeds[w.name] = map[string][]fingerprint{}
		for s := 0; s < n; s++ {
			fps, err := w.figures(ctx, uint64(s), chk)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			g.Seeds[w.name][strconv.Itoa(s)] = fps
		}
		fmt.Fprintf(log, "recorded %s seeds 0..%d\n", w.name, n-1)
	}
	if !chk.ok() {
		return fmt.Errorf("recording found %d problems: %s", len(chk.problems), strings.Join(chk.problems, "; "))
	}
	b, err := json.Marshal(g)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
