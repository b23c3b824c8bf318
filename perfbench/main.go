// Command perfbench is the repository's benchmark. It runs closed-loop
// transfer workloads through the root rmcast API and reports end-to-end
// metrics; a separate traced run (--trace 1) attributes the work to the
// internal layers a packet crosses. README.md records why each workload
// exists and what each metric means.
//
// Run it from the repository root through the build wrapper:
//
//	bash perfbench/run.sh --workload bulk30 --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 5
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is nonzero when
// a transfer delivered wrong bytes, a simulated figure differs from the
// value recorded for the seed, or the traced run finds an invariant
// violation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable summary printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one invocation.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	out     string
	stdout  io.Writer
	log     io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Uint64("seed", 1, "workload seed: sets every generated input")
	seconds := fs.Float64("seconds", 30, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	out := fs.String("out", ".bench_build", "directory the traced run writes its span file to")
	record := fs.Int("record-golden", 0, "record the simulated figures of seeds 0..N-1 into -golden and exit")
	goldenPath := fs.String("golden", "perfbench/golden.json", "golden file written by -record-golden")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	ctx := context.Background()
	if *record > 0 {
		if err := recordGolden(ctx, *record, *goldenPath, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	opts := options{seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		out: *out, stdout: stdout, log: stderr}

	var list []*workload
	if *name == "all" {
		list = workloads()
	} else if w := workloadByName(*name); w != nil {
		list = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q; choose one of %v or all\n", *name, workloadNames())
		return 2
	}
	code := 0
	for _, w := range list {
		res, err := runWorkload(ctx, w, opts)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: encoding result: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload performs one end-to-end or traced run of w.
func runWorkload(ctx context.Context, w *workload, o options) (*result, error) {
	chk := &checks{}
	var res *result
	var err error
	if o.traced {
		res, err = tracedRun(ctx, w, o, chk)
	} else {
		res, err = endToEndRun(ctx, w, o, chk)
	}
	if err != nil {
		return nil, err
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	res.Correct = chk.ok()
	for _, p := range chk.problems {
		fmt.Fprintf(o.stdout, "  INCORRECT: %s\n", p)
	}
	return res, nil
}

// checks collects correctness problems. A problem makes the run
// incorrect; it is never retried away.
type checks struct {
	problems []string
}

func (c *checks) failf(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

func (c *checks) ok() bool { return len(c.problems) == 0 }

// endToEndRun measures set-up, then a timed closed loop with tracing
// off, then checks the simulated figures against the recorded ones.
func endToEndRun(ctx context.Context, w *workload, o options, chk *checks) (*result, error) {
	fmt.Fprintf(o.stdout, "workload %s seed %d: %s\n", w.name, o.seed, w.shape)
	env := &runEnv{seed: o.seed, chk: chk, log: o.log}
	r, setupS, err := measureSetup(ctx, w, env, setupReps)
	if err != nil {
		return nil, err
	}
	defer r.close()
	ph := timedPhase(ctx, r, seconds(o.seconds), env)
	figs, err := r.figures(ctx)
	if err != nil {
		return nil, fmt.Errorf("simulated figures: %w", err)
	}
	checkGolden(ctx, w, o.seed, figs, chk)

	m := ph.metrics()
	m["setup_s"] = metric{setupS, "s"}
	simMs, wireKiB := simFigures(figs)
	m["sim_completion_ms"] = metric{simMs, "ms"}
	m["wire_kb_per_transfer"] = metric{wireKiB, "KiB"}
	printEndToEnd(o.stdout, m, ph)
	return &result{Attempted: ph.attempted, Failed: ph.failed, Metrics: m}, nil
}

// endToEndOrder lists the end-to-end metrics in print order.
var endToEndOrder = []string{
	"setup_s", "transfers_per_s", "transfer_ms_p50", "transfer_ms_tail",
	"cpu_ms_per_transfer", "alloc_mb_per_transfer", "allocs_per_transfer",
	"peak_heap_mb", "sim_completion_ms", "wire_kb_per_transfer",
}

func printEndToEnd(w io.Writer, m map[string]metric, ph *phase) {
	for _, k := range endToEndOrder {
		v := m[k]
		note := ""
		switch k {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", setupReps)
		case "transfers_per_s":
			note = fmt.Sprintf("%d verified in %.2f s", ph.attempted-ph.failed, ph.wall.Seconds())
		case "transfer_ms_tail":
			note = ph.tailNote()
		case "sim_completion_ms", "wire_kb_per_transfer":
			note = "simulated, exact on a fixed seed"
		}
		fmt.Fprintf(w, "  %-24s %14.4f %-6s %s\n", k, v.Value, v.Unit, note)
	}
	fmt.Fprintf(w, "  %-24s %14.4f %-6s %d failed of %d attempted\n", "failed_frac",
		ph.failedFrac(), "ratio", ph.failed, ph.attempted)
}

// printLayers prints the per-layer metrics in name order, marking the
// ones that do not apply to this workload.
func printLayers(w io.Writer, m map[string]metric, na map[string]bool) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if na[k] {
			fmt.Fprintf(w, "  %-32s %14s\n", k, "n/a")
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
