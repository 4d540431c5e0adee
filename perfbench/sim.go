package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"mpr/internal/core"
	"mpr/internal/perf"
	"mpr/internal/sim"
	"mpr/internal/telemetry"
	"mpr/internal/telemetry/tsdb"
	"mpr/internal/trace"
)

// simSpec is one trace-driven simulation workload: the generated traces
// and the simulator configuration.
type simSpec struct {
	name string
	gen  func(seed int64) trace.GenConfig
	// jobs is the simulated trace length: the generated trace is cut to
	// its first jobs jobs, so every seed simulates the same amount of
	// work (the generator's job count varies with its utilization walk).
	jobs    int
	algo    sim.Algorithm
	costErr float64
	// traces is the size of the workload's fixed input: the seed's own
	// trace and traces-1 more whose seeds are drawn from it. A run
	// simulates them in turn and stops only after a whole cycle, so every
	// figure covers the same traces whatever the speed of the code.
	traces int
	// spanCap sizes the run's span ring (sim.Config.TraceEvents) so that
	// every market's spans are kept; seriesCap sizes the sampled series'
	// rings so that every slot's active-bidder count is kept.
	spanCap, seriesCap int
}

// simStatDense: MPR-STAT, fixed α with linear cost, on the RICC preset
// (the largest active set per slot) at 15% oversubscription. Every job's
// bid key (profile, α, shape) repeats.
var simStatDense = simSpec{
	name:      "sim-stat-dense",
	gen:       func(seed int64) trace.GenConfig { return trace.RICCConfig(seed).WithDays(2) },
	jobs:      2500,
	algo:      sim.AlgMPRStat,
	traces:    16,
	spanCap:   1 << 10,
	seriesCap: 4096,
}

// simIntCostErr: MPR-INT with ±20% per-job random cost-estimation error
// on the Gaia preset at 15% (the Fig. 13(a) cell). The per-job α makes
// every bid key distinct.
var simIntCostErr = simSpec{
	name:      "sim-int-costerr",
	gen:       func(seed int64) trace.GenConfig { return trace.GaiaConfig(seed).WithDays(6) },
	jobs:      2000,
	algo:      sim.AlgMPRInt,
	costErr:   0.2,
	traces:    16,
	spanCap:   1 << 15,
	seriesCap: 12000,
}

// heapPhases is how many heap phases a sim run measures; heap_peak_mb is
// the median of their peaks.
const heapPhases = 3

func (sp simSpec) config(tr *trace.Trace, seed int64) sim.Config {
	return sim.Config{
		Trace:          tr,
		OversubPct:     15,
		Algorithm:      sp.algo,
		Seed:           seed,
		Alpha:          1,
		CostShape:      perf.CostLinear,
		CostErrorRand:  sp.costErr,
		TraceEvents:    sp.spanCap,
		SampleSeries:   true,
		SeriesCapacity: sp.seriesCap,
	}
}

// jobModel is one job's bidding identity, drawn exactly as the simulator
// draws it (sim.buildJobs): profile, then the perturbed bidding α, then
// the participation and phase draws that follow on the same stream.
type jobModel struct {
	cores    float64
	prof     *perf.Profile
	bidAlpha float64
}

func drawJobs(cfg sim.Config) []jobModel {
	profiles := perf.CPUProfiles()
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]jobModel, len(cfg.Trace.Jobs))
	for i, tj := range cfg.Trace.Jobs {
		m := jobModel{cores: float64(tj.Cores), prof: profiles[rng.Intn(len(profiles))], bidAlpha: cfg.Alpha}
		if cfg.CostErrorRand > 0 {
			m.bidAlpha *= 1 + cfg.CostErrorRand*(2*rng.Float64()-1)
		}
		rng.Float64() // participation
		rng.Float64() // phase offset
		out[i] = m
	}
	return out
}

// replayBids is the simulator's bid construction on its own: every job's
// cost model and static cooperative bid, as the simulator's job set-up
// builds them.
func replayBids(cfg sim.Config) {
	var sink float64
	for _, m := range drawJobs(cfg) {
		sink += core.CooperativeBid(m.cores, perf.NewCostModelUnchecked(m.prof, m.bidAlpha, cfg.CostShape)).B
	}
	sinkF = sink
}

// sinkF keeps replayed results live so the compiler cannot drop the calls.
var sinkF float64

// simSummary is the part of a sim.Result the output check compares.
type simSummary struct {
	JobsTotal         int     `json:"jobs_total"`
	JobsCompleted     int     `json:"jobs_completed"`
	JobsAffected      int     `json:"jobs_affected"`
	Slots             int     `json:"slots"`
	OverloadSlots     int     `json:"overload_slots"`
	EmergencyCount    int     `json:"emergencies"`
	MarketInvocations int     `json:"markets"`
	ReductionCoreH    float64 `json:"reduction_core_h"`
	CostCoreH         float64 `json:"cost_core_h"`
	PaymentCoreH      float64 `json:"payment_core_h"`
	UsedExtraCoreH    float64 `json:"used_extra_core_h"`
	MeanRounds        float64 `json:"mean_rounds"`
	MeanClearingPrice float64 `json:"mean_clearing_price"`
}

func summarize(r *sim.Result) simSummary {
	return simSummary{
		JobsTotal: r.JobsTotal, JobsCompleted: r.JobsCompleted, JobsAffected: r.JobsAffected,
		Slots: r.Slots, OverloadSlots: r.OverloadSlots, EmergencyCount: r.EmergencyCount,
		MarketInvocations: r.MarketInvocations,
		ReductionCoreH:    r.ReductionCoreH, CostCoreH: r.CostCoreH, PaymentCoreH: r.PaymentCoreH,
		UsedExtraCoreH: r.UsedExtraCoreH, MeanRounds: r.MeanRounds, MeanClearingPrice: r.MeanClearingPrice,
	}
}

// generate builds the workload's trace and simulator configuration.
func (sp simSpec) generate(seed int64) (sim.Config, error) {
	tr, err := trace.Generate(sp.gen(seed))
	if err != nil {
		return sim.Config{}, err
	}
	if len(tr.Jobs) < sp.jobs {
		return sim.Config{}, fmt.Errorf("seed %d generated %d jobs, the workload simulates %d", seed, len(tr.Jobs), sp.jobs)
	}
	tr.Jobs = tr.Jobs[:sp.jobs]
	return sp.config(tr, seed), nil
}

// traceSeeds are the seeds of the workload's fixed input: the run's seed
// first, then traces-1 seeds drawn from it.
func (sp simSpec) traceSeeds(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seeds := []int64{seed}
	for len(seeds) < sp.traces {
		seeds = append(seeds, rng.Int63())
	}
	return seeds
}

// marketTimes are the durations, in ms, the simulator's own spans record
// for its markets: each market, each round (an MPR-STAT market is one
// round), and each round's split into the bids' responses and the clear.
type marketTimes struct {
	market, round, respond, clear []float64
}

// spanMS is a span's duration in milliseconds.
func spanMS(s telemetry.Span) float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// read appends a run's market spans. It returns the markets, the rounds
// the market spans announce and the round spans kept, for the check that
// the ring kept every span.
func (m *marketTimes) read(spans []telemetry.Span, interactive bool) (markets, rounds, roundSpans int) {
	respond := map[uint64]float64{}
	for _, s := range spans {
		if s.Name == "respond_bids" {
			respond[s.Parent] = spanMS(s)
		}
	}
	for _, s := range spans {
		switch s.Name {
		case "market":
			markets++
			m.market = append(m.market, spanMS(s))
			for _, a := range s.Attrs {
				if a.Key == "rounds" {
					n, _ := strconv.Atoi(a.Value)
					rounds += n
				}
			}
			if !interactive {
				m.round = append(m.round, spanMS(s))
				m.clear = append(m.clear, spanMS(s))
			}
		case "market_round":
			roundSpans++
			m.round = append(m.round, spanMS(s))
			m.respond = append(m.respond, respond[s.ID])
			m.clear = append(m.clear, spanMS(s)-respond[s.ID])
		}
	}
	return markets, rounds, roundSpans
}

// agentCounts reads a run's sampled series: agentSlots is the sum over
// slots of the active bidders, the agents the simulator stepped through a
// slot; agentRounds the sum over markets of rounds × the active bidders
// of the market's slot, the bids the markets asked for.
func agentCounts(res *sim.Result) (agentSlots, agentRounds float64, err error) {
	points := func(name string) []tsdb.Bucket {
		d := res.Series.Query(tsdb.Query{Name: name, Resolution: tsdb.ResRaw})
		if len(d) != 1 {
			return nil
		}
		return d[0].Points
	}
	bidders := map[int64]float64{}
	for _, p := range points(sim.SeriesActiveBidders) {
		bidders[p.Start] = p.Sum
		agentSlots += p.Sum
	}
	if len(bidders) != res.Slots {
		return 0, 0, fmt.Errorf("the series ring kept %d of %d slots' active bidders", len(bidders), res.Slots)
	}
	markets := points(sim.SeriesMarketRounds)
	for _, p := range markets {
		agentRounds += p.Sum * bidders[p.Start]
	}
	if len(markets) != res.MarketInvocations {
		return 0, 0, fmt.Errorf("the series ring kept %d of %d markets' rounds", len(markets), res.MarketInvocations)
	}
	return agentSlots, agentRounds, nil
}

// simRun is one sim workload run's state.
type simRun struct {
	sp   simSpec
	o    runOpts
	out  *outcome
	tr   *tracer
	root int

	times                   marketTimes
	nMarkets                int // markets read so far, for the traced spans' groups
	cpu                     float64
	agentSlots, agentRounds float64
}

func runSim(sp simSpec, o runOpts) (*outcome, error) {
	r := &simRun{sp: sp, o: o, out: &outcome{values: map[string]float64{}}}
	if o.traced {
		r.tr = newTracer()
		r.root = r.tr.begin("run", "other", 0, "run")
	}
	seeds := sp.traceSeeds(o.seed)
	cfg0, err := sp.generate(o.seed)
	if err != nil {
		return nil, err
	}
	r.out.values["trace.jobs"] = float64(len(cfg0.Trace.Jobs))

	// The timed phase simulates the fixed input's traces in turn, whole
	// cycles only. Set-up time is sampled inside it, once per rep, so that
	// it is measured with the process and CPU as warm as the rest.
	rt := startRTSampler(50*time.Millisecond, 0)
	t0 := time.Now()
	var runWalls, bidWalls, gen, convert, slots, markets, rounds, emergencies []float64
	var marketGroups, roundGroups [][]float64
	first := make([]simSummary, sp.traces)
	cycleM, cycleR := 0, 0
	for rep := 0; rep < sp.traces || rep%sp.traces != 0 || time.Since(t0).Seconds() < o.seconds; rep++ {
		k := rep % sp.traces
		// Every rep starts from a collected heap, so where the collector
		// interrupts the rep does not drift from one rep to the next.
		runtime.GC()
		id := r.tr.begin("trace.generate", "trace", r.root, "run")
		g0 := time.Now()
		cfg, err := sp.generate(seeds[k])
		gen = append(gen, time.Since(g0).Seconds())
		r.tr.end(id)
		if err != nil {
			return nil, err
		}

		r.out.attempted++
		id = r.tr.begin("sim.run", "sim", r.root, "run")
		c0 := cpuSeconds()
		s0 := time.Now()
		res, err := sim.Run(cfg)
		wall := time.Since(s0).Seconds()
		r.cpu += cpuSeconds() - c0
		r.tr.end(id)
		if err != nil {
			r.out.fail("sim.Run: %v", err)
			continue
		}
		runWalls = append(runWalls, wall)
		if o.traced {
			// The rep's bid construction replayed right after its
			// sim.Run, so the two meet the same host conditions: bids
			// are nearly all of an MPR-STAT run, and its rest is the
			// small difference of the two.
			bid := r.tr.begin("bids.replay", "bids", r.root, "run")
			b0 := time.Now()
			replayBids(cfg)
			bidWalls = append(bidWalls, time.Since(b0).Seconds())
			r.tr.end(bid)
			// Tracing's own cost: the program records its spans either
			// way; the traced run adds only their copy into the run's.
			cv := r.tr.begin("tracing.convert", "tracing", r.root, "run")
			c0 := time.Now()
			r.addSpans(id, res.Spans)
			convert = append(convert, time.Since(c0).Seconds())
			r.tr.end(cv)
		}
		slots = append(slots, float64(res.Slots))
		markets = append(markets, float64(res.MarketInvocations))
		rounds = append(rounds, res.MeanRounds)
		emergencies = append(emergencies, float64(res.EmergencyCount))
		r.checkRun(res)
		r.readMarkets(res)
		switch {
		case rep == 0:
			first[0] = summarize(res)
			r.checkReplay(cfg0, res)
			r.checkReference(first[0])
		case rep < sp.traces:
			first[k] = summarize(res)
		case summarize(res) != first[k]:
			r.out.fail("cycle %d's run of trace %d differs from the first cycle's", rep/sp.traces, k)
		}
		if k == sp.traces-1 {
			marketGroups = append(marketGroups, r.times.market[cycleM:])
			roundGroups = append(roundGroups, r.times.round[cycleR:])
			cycleM, cycleR = len(r.times.market), len(r.times.round)
		}
	}
	rt.finish()
	r.out.values["setup_s"] = median(gen)
	r.out.values["trace.gen_s"] = median(gen)
	r.out.values["rt.goroutines"] = float64(rt.peakG)
	r.out.values["rt.gc_cycles"] = rt.gcCycles()
	r.out.values["sim.slots"] = median(slots)
	r.out.values["sim.markets"] = median(markets)
	r.out.values["sim.rounds_mean"] = median(rounds)
	r.out.values["sim.emergencies"] = median(emergencies)

	// Heap phases: the seed's own trace again with the collector marking
	// the heap after every 1% of growth, so the peak live heap is caught
	// whatever the collector's default pacing; the median of the phases'
	// peaks. Each result must equal the timed phase's.
	var peaks []float64
	for i := 0; i < heapPhases; i++ {
		hp := startRTSampler(time.Millisecond, heapPhaseGCPercent)
		if res, err := sim.Run(cfg0); err != nil {
			r.out.fail("sim.Run: %v", err)
		} else if summarize(res) != first[0] {
			r.out.fail("a heap phase's run of the seed's trace differs from the timed phase's")
		}
		hp.finish()
		peaks = append(peaks, hp.peakHeapMB())
	}
	r.out.values["heap_peak_mb"] = median(peaks)

	// Means over the run, so that its share of the host's fast and slow
	// spells moves the figures smoothly: jobs over the mean sim.Run wall,
	// and the cycles' market and round timings through groupMedian and
	// groupTail.
	jobs := float64(len(cfg0.Trace.Jobs))
	r.out.values["sim.run_s"] = mean(runWalls)
	r.out.values["jobs_per_s"] = jobs / mean(runWalls)
	r.out.values["market_p50_ms"] = groupMedian(marketGroups)
	r.out.values["market_p90_ms"] = groupTail(marketGroups, 0.9)
	r.out.values["round_p50_ms"] = groupMedian(roundGroups)
	r.out.values["round_p99_ms"] = groupTail(roundGroups, 0.99)
	// The simulator's control round is the slot: every slot steps each
	// active agent, and bid construction, most of an MPR-STAT run, scales
	// with the agents too. Per market round instead, the measure would
	// follow each trace's count of emergencies more than the code.
	r.out.values["cpu_us_per_agent_round"] = r.cpu / r.agentSlots * 1e6
	r.out.values["market.samples"] = float64(len(r.times.market))
	r.out.values["round.samples"] = float64(len(r.times.round))
	r.out.note("%d sim.Run reps (%d cycles of %d traces of %d jobs); %d markets, %d rounds of %.0f bidders on average",
		len(runWalls), len(runWalls)/sp.traces, sp.traces, len(cfg0.Trace.Jobs), len(r.times.market), len(r.times.round),
		r.agentRounds/float64(len(r.times.round)))

	if o.traced {
		r.layerMetrics(mean(bidWalls), convert)
		r.tr.end(r.root)
		r.out.tr, r.out.root = r.tr, r.root
		r.out.values["tracing.wall_s"] = float64(r.tr.spans[r.root-1].EndNS-r.tr.spans[r.root-1].StartNS) / 1e9
	}
	return r.out, nil
}

// readMarkets takes a rep's market and round times from the simulator's
// spans and its agent counts from its sampled series, and checks that the
// rings kept every market.
func (r *simRun) readMarkets(res *sim.Result) {
	interactive := r.sp.algo == sim.AlgMPRInt
	markets, rounds, roundSpans := r.times.read(res.Spans, interactive)
	if markets != res.MarketInvocations {
		r.out.fail("the span ring kept %d of %d market spans", markets, res.MarketInvocations)
	}
	if interactive && roundSpans != rounds {
		r.out.fail("the span ring kept %d of %d round spans", roundSpans, rounds)
	}
	agentSlots, agentRounds, err := agentCounts(res)
	if err != nil {
		r.out.fail("%v", err)
	}
	r.agentSlots += agentSlots
	r.agentRounds += agentRounds
}

// addSpans copies a run's market spans into the traced run, under the
// sim.Run span: markets and rounds in the clear layer, the rounds' bid
// responses in the respond layer. Emergency spans, which cover slot-loop
// work too, stay in sim. The ring holds spans in the order they ended,
// children before parents, so each level is copied in its own pass.
func (r *simRun) addSpans(parent int, spans []telemetry.Span) {
	ids := map[uint64]int{}
	groups := map[uint64]string{}
	for _, level := range [...]struct{ name, layer string }{
		{"market", "clear"}, {"market_round", "clear"}, {"respond_bids", "respond"},
	} {
		for _, s := range spans {
			if s.Name != level.name {
				continue
			}
			sp := span{Name: s.Name, Layer: level.layer, Parent: ids[s.Parent], Group: groups[s.Parent],
				StartNS: r.tr.rel(s.StartNS), EndNS: r.tr.rel(s.EndNS)}
			if s.Name == "market" {
				sp.Parent, sp.Group = parent, "m"+strconv.Itoa(r.nMarkets)
				r.nMarkets++
			}
			ids[s.ID], groups[s.ID] = r.tr.add(sp), sp.Group
		}
	}
}

// checkRun checks a rep's output: every job completes and every
// aggregate is finite.
func (r *simRun) checkRun(res *sim.Result) {
	if res.JobsCompleted != res.JobsTotal {
		r.out.fail("%d of %d jobs completed", res.JobsCompleted, res.JobsTotal)
	}
	for name, v := range map[string]float64{
		"reduction": res.ReductionCoreH, "cost": res.CostCoreH, "payment": res.PaymentCoreH,
		"used_extra": res.UsedExtraCoreH, "mean_rounds": res.MeanRounds, "mean_price": res.MeanClearingPrice,
		"runtime_increase": res.MeanRuntimeIncrease, "queue_wait": res.MeanQueueWaitMin,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.out.fail("aggregate %s is %v", name, v)
		}
	}
}

// checkReplay checks that the job draws behind the bid replay reproduce
// the simulator's: the same jobs per profile.
func (r *simRun) checkReplay(cfg sim.Config, res *sim.Result) {
	perProfile := map[string]int{}
	for _, m := range drawJobs(cfg) {
		perProfile[m.prof.Name]++
	}
	for name, ps := range res.PerProfile {
		if ps.Jobs != perProfile[name] {
			r.out.fail("bid replay drew %d %s jobs, the simulator %d", perProfile[name], name, ps.Jobs)
		}
	}
}

// checkReference compares the seed's own trace's aggregates with the
// reference recorded for this seed, when there is one.
func (r *simRun) checkReference(sum simSummary) {
	ref, ok := referenceFor(r.sp.name, r.o.seed)
	switch {
	case !ok:
		r.out.note("no recorded reference for seed %d: checked invariants and run-to-run identity only", r.o.seed)
	case compareSummary(sum, ref) != "":
		r.out.fail("differs from the reference for seed %d: %s", r.o.seed, compareSummary(sum, ref))
	case sum == ref:
		r.out.note("reference for seed %d: matched bit-identically", r.o.seed)
	default:
		r.out.note("reference for seed %d: matched within tolerance, not bit-identically", r.o.seed)
	}
}

// layerMetrics derives the traced run's per-layer figures: the bid
// replay's against sim.Run, and the respond/clear split of the rounds.
func (r *simRun) layerMetrics(bidsS float64, convert []float64) {
	n := r.out.values["trace.jobs"]
	r.out.values["bids.calls"] = n
	r.out.values["bids.s"] = bidsS
	r.out.values["bids.us_per_call"] = bidsS / n * 1e6
	runS := r.out.values["sim.run_s"]
	r.out.values["bids.share"] = bidsS / runS
	r.out.values["sim.rest_s"] = runS - bidsS
	r.out.values["sim.us_per_slot"] = (runS - bidsS) / r.out.values["sim.slots"] * 1e6

	// respond: the rounds' bid responses per participant-round; clear:
	// per clear call (a round of MPR-INT, a market of MPR-STAT).
	var respondMS float64
	for _, v := range r.times.respond {
		respondMS += v
	}
	r.out.values["respond.us_per_call"] = respondMS / r.agentRounds * 1e3
	r.out.values["clear.us_per_call"] = mean(r.times.clear) * 1e3

	// Tracing overhead: sim.Run is the same call traced or not, so the
	// traced run's added time is the spans' copy after each rep.
	r.out.values["tracing.overhead_ms"] = mean(convert) * 1e3
	r.out.values["tracing.overhead_frac"] = mean(convert) / runS
}
