// Command perfbench is the repository's benchmark. It runs one named
// workload through the layers' public entry points for a fixed time,
// checks the outputs, and prints one JSON result as its last line:
//
//	perfbench --workload sim-stat-dense --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate, traced run records spans around every call into
// a layer and reports the per-layer metrics (METRICS.md lists both and
// which workload each should move). Run it through run.sh, which builds
// it from the checkout's sources.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. The same names and units appear
// in BENCHMARK.json (TestBenchmarkJSONMatches keeps them in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "jobs/s", "higher"},
	{"heap_peak_mb", "MB", "lower"},
	{"market_p50_ms", "ms", "lower"},
	{"market_p90_ms", "ms", "lower"},
	{"round_p50_ms", "ms", "lower"},
	{"round_p99_ms", "ms", "lower"},
	{"cpu_us_per_agent_round", "us", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// call reports 0.
var perLayer = []metricDef{
	{"trace.gen_s", "s", "lower"},
	{"trace.jobs", "count", "higher"},
	{"bids.calls", "count", "lower"},
	{"bids.s", "s", "lower"},
	{"bids.us_per_call", "us", "lower"},
	{"bids.share", "ratio", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.rest_s", "s", "lower"},
	{"sim.slots", "count", "higher"},
	{"sim.us_per_slot", "us", "lower"},
	{"sim.markets", "count", "higher"},
	{"sim.rounds_mean", "count", "lower"},
	{"sim.emergencies", "count", "higher"},
	{"respond.us_per_call", "us", "lower"},
	{"clear.us_per_call", "us", "lower"},
	{"mgr.broadcast_ms", "ms", "lower"},
	{"mgr.gather_wait_ms", "ms", "lower"},
	{"mgr.ingress_wait_us", "us", "lower"},
	{"mgr.merge_clear_ms", "ms", "lower"},
	{"mgr.deliver_ms", "ms", "lower"},
	{"mgr.rounds_per_market", "count", "lower"},
	{"mgr.converged_frac", "ratio", "higher"},
	{"mgr.bytes_out_per_round", "bytes", "lower"},
	{"mgr.bytes_in_per_round", "bytes", "lower"},
	{"mgr.evictions", "count", "lower"},
	{"oracle.clear_us", "us", "lower"},
	{"driver.busy_s", "s", "lower"},
	{"driver.share", "ratio", "lower"},
	{"driver.goroutines", "count", "lower"},
	{"rt.goroutines", "count", "lower"},
	{"rt.gc_cycles", "count", "lower"},
	{"market.samples", "count", "higher"},
	{"round.samples", "count", "higher"},
	{"self.trace_s", "s", "lower"},
	{"self.bids_s", "s", "lower"},
	{"self.sim_s", "s", "lower"},
	{"self.respond_s", "s", "lower"},
	{"self.clear_s", "s", "lower"},
	{"self.mgr_s", "s", "lower"},
	{"self.driver_s", "s", "lower"},
	{"self.oracle_s", "s", "lower"},
	{"self.tracing_s", "s", "lower"},
	{"self.other_s", "s", "lower"},
	{"tracing.wall_s", "s", "lower"},
	{"tracing.overhead_ms", "ms", "lower"},
	{"tracing.overhead_frac", "ratio", "lower"},
	{"fail_frac", "ratio", "lower"},
}

// layers are the span layers whose self times partition a traced run.
var layers = []string{"trace", "bids", "sim", "respond", "clear", "mgr", "driver", "oracle", "tracing"}

// procs is the GOMAXPROCS every run uses. On a shared host the
// neighbours' load swings multi-core timings of the wire workload further
// than single-core ones, and the repository's performance claims are
// stated at GOMAXPROCS=1.
const procs = 1

// runOpts are one invocation's arguments.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
}

// outcome is what a workload run returns: metric values by name, the
// operations attempted and failed, and notes for the human-readable
// report.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	notes     []string
	tr        *tracer
	root      int
}

func (o *outcome) fail(format string, args ...interface{}) {
	o.failed++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type workloadDef struct {
	name string
	run  func(runOpts) (*outcome, error)
}

var workloads = []workloadDef{
	{"sim-stat-dense", func(o runOpts) (*outcome, error) { return runSim(simStatDense, o) }},
	{"sim-int-costerr", func(o runOpts) (*outcome, error) { return runSim(simIntCostErr, o) }},
	{"wire-int-fleet", runWire},
}

func main() {
	var o runOpts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for span files")
	record := flag.String("record-reference", "", "write sim reference aggregates for seeds 0..63 and the held-out seed to this file, then exit")
	flag.Parse()
	if *record != "" {
		if err := recordReference(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.traced = trace == 1
	runtime.GOMAXPROCS(procs)
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", o.workload, workloadNames())
		os.Exit(2)
	}
	if err := validateReference(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	start := time.Now()
	out, err := wl.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if o.traced {
		finishTrace(out, o)
	}
	out.values["fail_frac"] = float64(out.failed) / math.Max(1, float64(out.attempted))

	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed++
		res.Correct = false
		out.notes = append(out.notes, "FAIL: nothing attempted")
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			res.Failed++
			out.notes = append(out.notes, fmt.Sprintf("FAIL: metric %s not measured (%v)", d.name, v))
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}

	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d wall=%.2fs\n", o.workload, o.seed, o.seconds, trace, time.Since(start).Seconds())
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  %-26s %14g %s\n", "fail_frac", out.values["fail_frac"], "ratio")
	for _, d := range defs {
		if d.name != "fail_frac" {
			fmt.Printf("  %-26s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// finishTrace derives the self-time partition of a traced run, fills in
// the layers the workload did not call, and writes the spans out.
func finishTrace(out *outcome, o runOpts) {
	self := out.tr.selfTimes(out.root)
	var sum float64
	for _, l := range append(layers, "other") {
		out.values["self."+l+"_s"] = self[l]
		sum += self[l]
	}
	delete(self, "other")
	for _, l := range layers {
		delete(self, l)
	}
	if len(self) > 0 {
		keys := make([]string, 0, len(self))
		for k := range self {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out.fail("spans carry unknown layers %v", keys)
	}
	wall := out.values["tracing.wall_s"]
	if math.Abs(sum-wall) > 1e-6*math.Max(1, wall) {
		out.fail("self times sum to %.9fs, traced wall is %.9fs", sum, wall)
	}
	for _, d := range perLayer {
		if _, ok := out.values[d.name]; !ok {
			out.values[d.name] = 0
		}
	}
	path, err := out.tr.write(o.outDir, o.workload, o.seed)
	if err != nil {
		out.fail("%v", err)
		return
	}
	out.note("spans written to %s", path)
}
