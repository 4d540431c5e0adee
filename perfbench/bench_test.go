package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"mpr/internal/agentproto"
	"mpr/internal/trace"
)

func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, perfbench %+v", kind, i, m, w)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestReferenceCoversSeeds(t *testing.T) {
	for _, name := range []string{simStatDense.name, simIntCostErr.name} {
		for _, seed := range []int64{0, referenceSeeds - 1, heldOutSeed} {
			if _, ok := referenceFor(name, seed); !ok {
				t.Errorf("%s: no reference for seed %d", name, seed)
			}
		}
	}
}

// smallSpec shrinks a sim workload so a full traced run takes a moment.
// Renamed, it has no recorded reference.
func smallSpec(sp simSpec) simSpec {
	sp.name += "-small"
	sp.gen = func(seed int64) trace.GenConfig { return trace.GaiaConfig(seed).WithDays(1) }
	sp.jobs, sp.traces = 300, 2
	return sp
}

func TestSimWorkloadsTracedRun(t *testing.T) {
	for _, sp := range []simSpec{simStatDense, simIntCostErr} {
		t.Run(sp.name, func(t *testing.T) {
			o := runOpts{workload: sp.name, seed: 3, seconds: 0.01, traced: true, outDir: t.TempDir()}
			out, err := runSim(smallSpec(sp), o)
			if err != nil {
				t.Fatal(err)
			}
			finishTrace(out, o)
			if out.failed != 0 {
				t.Fatalf("%d failures: %v", out.failed, out.notes)
			}
			for _, m := range []string{"jobs_per_s", "market_p50_ms", "round_p99_ms", "bids.share", "self.sim_s"} {
				if out.values[m] <= 0 {
					t.Errorf("%s = %v, want > 0", m, out.values[m])
				}
			}
		})
	}
}

// smallWire starts a manager and a fleet of n agents and returns the run.
func smallWire(t *testing.T, o runOpts, specs []agentSpec, mcfg agentproto.ManagerConfig) *wireRun {
	t.Helper()
	w := newWireRun(o, specs)
	if o.traced {
		w.tr = newTracer()
		w.root = w.tr.begin("run", "other", 0, "run")
	}
	mgr, fl, err := w.setup(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	w.mgr, w.fl = mgr, fl
	fl.start()
	t.Cleanup(func() {
		mgr.Close()
		fl.stop()
	})
	return w
}

func TestWireMarketsPassOracle(t *testing.T) {
	o := runOpts{seed: 5, traced: true}
	w := smallWire(t, o, fleetSpecs(o.seed, 24), managerConfig())
	for i := 0; i < 3; i++ {
		w.market(w.target(), true)
	}
	w.finishFailures()
	if w.out.failed != 0 {
		t.Fatalf("%d failures: %v", w.out.failed, w.out.notes)
	}
	if len(w.oracleUS) != 3 || len(w.broadcast) == 0 || len(w.deliver) != 3 {
		t.Fatalf("oracle ran %d times, %d broadcasts and %d deliveries staged",
			len(w.oracleUS), len(w.broadcast), len(w.deliver))
	}
	if n := int(w.fl.peak.Load()); n < 1 || n > runtime.GOMAXPROCS(0) {
		t.Fatalf("driver served agents from %d goroutines at once, GOMAXPROCS is %d", n, runtime.GOMAXPROCS(0))
	}
	w.tr.end(w.root)
	self := w.tr.selfTimes(w.root)
	var sum float64
	for _, v := range self {
		if v < 0 {
			t.Fatalf("negative self time: %v", self)
		}
		sum += v
	}
	root := w.tr.spans[w.root-1]
	if wall := float64(root.EndNS-root.StartNS) / 1e9; sum < wall*(1-1e-9) || sum > wall*(1+1e-9) {
		t.Fatalf("self times sum to %v, wall %v", sum, wall)
	}
}

// A virtual agent that stops answering prices is evicted through the
// manager's deadline-miss budget, over the in-memory connection's
// deadlines, and the eviction counts as a failed operation.
func TestStalledAgentIsEvictedAndCounted(t *testing.T) {
	specs := fleetSpecs(7, 8)
	specs[3].stall = true
	mcfg := agentproto.ManagerConfig{RoundTimeout: 30 * time.Millisecond, EvictAfterMisses: 2}
	w := smallWire(t, runOpts{seed: 7}, specs, mcfg)
	for i := 0; i < 3; i++ {
		w.market(w.target(), false)
	}
	w.finishFailures()
	if got := w.mgr.Evictions(); got != 1 {
		t.Fatalf("manager evicted %d agents, want 1", got)
	}
	stalled := w.fl.agents[3]
	want := agentproto.EvictedPrefix + string(agentproto.ReasonDeadlineBudget)
	if !stalled.dropped || stalled.reason != want {
		t.Fatalf("stalled agent dropped=%v reason=%q, want %q", stalled.dropped, stalled.reason, want)
	}
	if w.out.failed != 1 || w.out.attempted != 3 {
		t.Fatalf("failed %d of %d, want 1 of 3: %v", w.out.failed, w.out.attempted, w.out.notes)
	}
	if w.mgr.AgentCount() != 7 {
		t.Fatalf("manager keeps %d agents, want 7", w.mgr.AgentCount())
	}
}
