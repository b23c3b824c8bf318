package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		wantV   float64
		wantPct float64
	}{
		{n: 100, wantV: 90, wantPct: 90},
		{n: 11, wantV: 1, wantPct: 100.0 / 11},
		{n: 1000, wantV: 990, wantPct: 99},
		{n: 57, wantV: 47, wantPct: 100 * 47.0 / 57},
	} {
		xs := seq(tc.n)
		v, pct := tail(xs, minBeyond)
		if v != tc.wantV || pct != tc.wantPct {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", tc.n, v, pct, tc.wantV, tc.wantPct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, minBeyond)
		}
	}
	// Too few samples for any percentile with ten beyond: the maximum.
	if v, pct := tail(seq(10), minBeyond); v != 10 || pct != 100 {
		t.Errorf("n=10: tail = %v at p%v, want the maximum 10 at p100", v, pct)
	}
}

// TestLayerMapCoversInternal fails when an internal package is neither
// a named layer nor listed as other, so a new package cannot silently
// fall out of the attribution.
func TestLayerMapCoversInternal(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		seen[e.Name()] = true
		b, unmapped, ok := bucketOf(internalPrefix + e.Name() + ".F")
		if !ok || unmapped != "" {
			t.Errorf("internal/%s is neither a layer nor in otherPkgs (bucket %q)", e.Name(), b)
		}
	}
	for _, l := range append(append([]string(nil), layers...), otherPkgs...) {
		if !seen[l] {
			t.Errorf("layer map names %q, which is not a directory under internal/", l)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"rmcast/internal/sim.(*Simulator).Step":                      "sim",
		"rmcast/internal/core.(*Sender).onAck.func1":                 "core",
		"rmcast/internal/window.(*MinTracker).Update":                "window",
		"rmcast/internal/trace.(*Buffer).Add":                        "other",
		"rmcast/internal/check.Execute":                              "other",
		"rmcast/internal/cluster.Run[go.shape.*rmcast/internal/x.T]": "cluster",
		"main.(*simRunner).run.func1":                                "bench",
		"rmcast.Run":                                                 "other",
		"rmcast/internal/newpkg.F":                                   "other",
		"rmcast/internal/packet.decodeV2":                            "packet",
		"rmcast/internal/wire.(*Codec).Decode":                       "wire",
		"rmcast/internal/live.(*udpTransport).reader":                "live",
		"rmcast/internal/ethernet.(*Switch).forward":                 "ethernet",
		"rmcast/internal/ipnet.(*Host).deliver":                      "ipnet",
		"rmcast/internal/metrics.(*Counter).Inc":                     "metrics",
	} {
		if got, _, ok := bucketOf(fn); !ok || got != want {
			t.Errorf("bucketOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if _, pkg, _ := bucketOf("rmcast/internal/newpkg.F"); pkg != "newpkg" {
		t.Errorf("an unknown internal package is not reported as unmapped")
	}
	for _, fn := range []string{"runtime.mallocgc", "compress/flate.(*decompressor).Read", "syscall.Syscall6"} {
		if b, _, ok := bucketOf(fn); ok {
			t.Errorf("bucketOf(%q) = %q; a non-repository frame must defer to its caller", fn, b)
		}
	}
}

// TestCPUSharesSumToOne profiles real simulator work and checks the
// attribution charges it to the sim layer and accounts for every sample.
func TestCPUSharesSumToOne(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		simEventProbe(1)
	}
	pprof.StopCPUProfile()
	shares, unmapped, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(unmapped) > 0 {
		t.Errorf("unmapped packages %v", unmapped)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v, want 1: %v", sum, shares)
	}
	if shares["sim"] < 0.2 {
		t.Errorf("sim share %v for a loop of simulator events: %v", shares["sim"], shares)
	}
	if len(shares) != len(layers)+len(shareBuckets) {
		t.Errorf("%d share buckets, want %d", len(shares), len(layers)+len(shareBuckets))
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests compare.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloadNames())
	}
	if len(s.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code has %d", len(s.PerLayer), len(layerMetrics))
	}
	for i, m := range s.PerLayer {
		lm := layerMetrics[i]
		if m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, lm)
		}
	}
	var e2e []string
	for _, m := range s.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if strings.Join(e2e, ",") != strings.Join(endToEndOrder, ",") {
		t.Errorf("BENCHMARK.json end_to_end %v, code prints %v", e2e, endToEndOrder)
	}
}

// TestSmoke runs every workload briefly, end to end and traced, and
// checks each prints a correct result carrying exactly the metrics
// BENCHMARK.json declares, with the declared units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	units := func(list []struct{ Name, Unit, Better string }) map[string]string {
		m := map[string]string{}
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	for _, w := range workloads() {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+traced, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "1", "--seconds", "0.05",
					"--trace", traced, "--out", t.TempDir()}, &out, &errOut)
				if code != 0 && w.name == "live-udp" && strings.Contains(errOut.String(), "set-up") {
					t.Skipf("UDP multicast over loopback unavailable: %s", errOut.String())
				}
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				want := units(s.EndToEnd)
				if traced == "1" {
					want = units(s.PerLayer)
				}
				var got []string
				for k, m := range res.Metrics {
					got = append(got, k)
					if want[k] != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", k, m.Unit, want[k])
					}
				}
				sort.Strings(got)
				if len(got) != len(want) {
					t.Errorf("metrics %v, want the %d BENCHMARK.json declares", got, len(want))
				}
			})
		}
	}
}
