package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpr/internal/agentproto"
	"mpr/internal/core"
	"mpr/internal/perf"
	"mpr/internal/power"
	"mpr/internal/telemetry"
)

// wire-int-fleet: an in-process agentproto.Manager serving a fleet of
// virtual MPR-INT agents over in-memory connections. Most agents speak
// binary frames and every jsonEvery-th one JSON lines, so both ingress
// codecs and the once-per-fleet dual encoding run. Agents answer with
// core.RationalBidder over perf CPU profiles, without jitter. The loop is
// closed: the operator starts the next market only after the previous
// one returned and its orders reached the fleet, as mprd's operator does.
const (
	wireAgents = 1000
	jsonEvery  = 8
	// sampleEvery picks the agents whose round turnaround is recorded
	// (index divisible by it), bounding the sample memory.
	sampleEvery = 5
	// drainTimeout bounds the wait for a market's orders to reach the
	// fleet.
	drainTimeout = 10 * time.Second
	// warmupMarkets run before set-up is sampled; heapMarkets run in the
	// heap phase before the timed phase; probePairs pairs of
	// markets run untraced and traced to measure the tracing overhead.
	// minMarkets keeps market_p90_ms at ten samples beyond it even when
	// the machine is slow.
	minMarkets    = 100
	warmupMarkets = 3
	heapMarkets   = 3
	probePairs    = 10
	// A run samples its set-up setupBurst times before every
	// segmentMarkets markets; setup_s is the median. One sample takes
	// about 12 ms and single samples vary by a third with the host's
	// load, so the median needs many of them.
	segmentMarkets = 10
	setupBurst     = 5
)

// agentSpec is one virtual agent's job, generated from the seed.
type agentSpec struct {
	id      string
	cores   float64
	maxFrac float64
	wire    string
	bidder  core.RationalBidder
	// stall makes the agent ignore price announcements (tests only).
	stall bool
}

func fleetSpecs(seed int64, n int) []agentSpec {
	rng := rand.New(rand.NewSource(seed))
	profiles := perf.CPUProfiles()
	specs := make([]agentSpec, n)
	for i := range specs {
		prof := profiles[rng.Intn(len(profiles))]
		cores := float64(int(4) << rng.Intn(6))
		alpha := 1 + rng.Float64()
		wire := agentproto.WireBinary
		if i%jsonEvery == jsonEvery-1 {
			wire = agentproto.WireJSON
		}
		specs[i] = agentSpec{
			id:      fmt.Sprintf("job-%06d", i),
			cores:   cores,
			maxFrac: prof.MaxReduction(),
			wire:    wire,
			bidder:  core.RationalBidder{Cores: cores, Model: perf.NewCostModel(prof, alpha, perf.CostLinear)},
		}
	}
	return specs
}

type msgCodec interface {
	Send(agentproto.Message) error
	Recv() (agentproto.Message, error)
}

// vagent is one virtual agent. Its protocol state is touched only by the
// driver worker currently serving it (queued serializes them).
type vagent struct {
	spec   agentSpec
	idx    int
	sample bool
	conn   *memConn // the agent's end
	codec  msgCodec

	pending atomic.Int32 // manager writes (and closes) not yet handled
	queued  atomic.Bool  // in the run queue or being served

	lastPriceNS int64
	lastRound   int
	bid         core.Bid
	bidRound    int
	order       float64
	dropped     bool
	reason      string

	// Stage boundaries of the traced market in flight, one writer each:
	// the manager's shard loop (price and order writes), its reader
	// goroutine (bid reads) and the driver (bytes in).
	priceW            []int64
	orderW            int64
	bidEnq, bidRead   []int64
	bytesOut, bytesIn int64
}

// fleet is the benchmark's load generator: at most GOMAXPROCS workers
// serve every agent, woken through a run queue by the manager's writes.
type fleet struct {
	agents []*vagent
	byID   []*vagent // roster order, as the manager sorts it
	runq   chan int32
	wg     sync.WaitGroup
	// live counts the driver goroutines serving agents; peak is the most
	// that ever served at once.
	live, peak atomic.Int32
	stats      []workerStats

	orders   atomic.Int64
	drops    atomic.Int64
	doorbell chan struct{}
	traceOn  atomic.Bool
}

// workerStats is one driver worker's record: time spent serving agents
// and the round turnarounds of sampled agents. The operator resets and
// reads it between markets, while the worker may still be finishing.
type workerStats struct {
	mu      sync.Mutex
	busyNS  int64
	samples []float64
}

// resetStats drops everything the workers recorded so far.
func (f *fleet) resetStats() {
	for i := range f.stats {
		st := &f.stats[i]
		st.mu.Lock()
		st.busyNS, st.samples = 0, nil
		st.mu.Unlock()
	}
}

// collectStats returns the workers' total busy time and all samples.
func (f *fleet) collectStats() (busy float64, samples []float64) {
	for i := range f.stats {
		st := &f.stats[i]
		st.mu.Lock()
		busy += float64(st.busyNS) / 1e9
		samples = append(samples, st.samples...)
		st.mu.Unlock()
	}
	return busy, samples
}

func newFleet(specs []agentSpec) *fleet {
	f := &fleet{runq: make(chan int32, len(specs)), doorbell: make(chan struct{}, 1)}
	for i, s := range specs {
		a := &vagent{spec: s, idx: i, sample: i%sampleEvery == 0}
		f.agents = append(f.agents, a)
	}
	f.byID = append([]*vagent(nil), f.agents...)
	sort.Slice(f.byID, func(i, j int) bool { return f.byID[i].spec.id < f.byID[j].spec.id })
	return f
}

func (f *fleet) notify(a *vagent) {
	a.pending.Add(1)
	if a.queued.CompareAndSwap(false, true) {
		f.runq <- int32(a.idx) // never blocks: an agent is queued at most once
	}
}

// attach wires agent a's connection into the fleet: manager writes and
// closes wake the driver, and when traced the stage boundaries are
// stamped. mgrEnd is the manager's end of the same connection.
func (f *fleet) attach(a *vagent, mgrEnd *memConn, traced bool) {
	m2a, a2m := mgrEnd.tx, mgrEnd.rx
	m2a.mu.Lock()
	m2a.onWrite = func(p []byte, now int64) {
		if f.traceOn.Load() {
			a.bytesOut += int64(len(p))
			switch frameType(p) {
			case agentproto.MsgPrice:
				a.priceW = append(a.priceW, now)
			case agentproto.MsgOrder:
				a.orderW = now
			}
		}
		f.notify(a)
	}
	m2a.mu.Unlock()
	mgrEnd.onClose = func() { f.notify(a) }
	if !traced {
		return
	}
	a2m.mu.Lock()
	a2m.onWrite = func(p []byte, _ int64) {
		if f.traceOn.Load() {
			a.bytesIn += int64(len(p))
		}
	}
	a2m.onChunk = func(c chunk, now int64) {
		if f.traceOn.Load() {
			a.bidEnq = append(a.bidEnq, c.enqN)
			a.bidRead = append(a.bidRead, now)
		}
	}
	a2m.mu.Unlock()
}

// frameType classifies a manager write by its first bytes: a binary
// frame's type byte or a JSON line's type field.
func frameType(p []byte) agentproto.MsgType {
	const jsonPrefix = `{"type":"`
	switch {
	case len(p) > 1 && p[0] == 0xA7:
		switch p[1] {
		case 2:
			return agentproto.MsgPrice
		case 4:
			return agentproto.MsgOrder
		}
	case len(p) > len(jsonPrefix) && string(p[:len(jsonPrefix)]) == jsonPrefix:
		switch p[len(jsonPrefix)] {
		case 'p':
			return agentproto.MsgPrice
		case 'o':
			return agentproto.MsgOrder
		}
	}
	return ""
}

func (f *fleet) start() {
	n := runtime.GOMAXPROCS(0)
	f.stats = make([]workerStats, n)
	f.wg.Add(n)
	for w := 0; w < n; w++ {
		go f.work(w)
	}
}

// stop ends the workers once nothing can notify them any more (the
// manager is closed) and waits for them to exit.
func (f *fleet) stop() {
	close(f.runq)
	f.wg.Wait()
}

func (f *fleet) work(w int) {
	defer f.wg.Done()
	n := f.live.Add(1)
	defer f.live.Add(-1)
	for p := f.peak.Load(); n > p && !f.peak.CompareAndSwap(p, n); p = f.peak.Load() {
	}
	for idx := range f.runq {
		t0 := time.Now()
		a := f.agents[idx]
		for {
			n := a.pending.Load()
			for i := int32(0); i < n; i++ {
				f.handle(w, a)
			}
			if a.pending.Add(-n) > 0 {
				continue
			}
			a.queued.Store(false)
			if a.pending.Load() == 0 || !a.queued.CompareAndSwap(false, true) {
				break
			}
		}
		st := &f.stats[w]
		st.mu.Lock()
		st.busyNS += time.Since(t0).Nanoseconds()
		st.mu.Unlock()
	}
}

// handle processes one manager message (or the close) for agent a.
func (f *fleet) handle(w int, a *vagent) {
	if a.dropped {
		return
	}
	msg, err := a.codec.Recv()
	if err != nil {
		f.drop(a, err.Error())
		return
	}
	switch msg.Type {
	case agentproto.MsgPrice:
		if a.spec.stall {
			return
		}
		now := time.Now().UnixNano()
		if a.sample && a.lastRound > 0 && msg.Round == a.lastRound+1 {
			st := &f.stats[w]
			st.mu.Lock()
			st.samples = append(st.samples, float64(now-a.lastPriceNS)/1e6)
			st.mu.Unlock()
		}
		a.lastPriceNS, a.lastRound = now, msg.Round
		bid := a.spec.bidder.RespondBid(msg.Price)
		a.bid, a.bidRound = bid, msg.Round
		if err := a.codec.Send(agentproto.Message{Type: agentproto.MsgBid, Round: msg.Round,
			TraceID: msg.TraceID, Delta: bid.Delta, B: bid.B}); err != nil {
			f.drop(a, err.Error())
		}
	case agentproto.MsgOrder:
		a.order = msg.ReductionCores
		a.lastRound = 0
		f.orders.Add(1)
		ring(f.doorbell)
	case agentproto.MsgError:
		f.drop(a, msg.Reason)
	}
}

func (f *fleet) drop(a *vagent, reason string) {
	a.dropped, a.reason = true, reason
	f.drops.Add(1)
	ring(f.doorbell)
}

// wireRun is one wire workload run: the manager, the fleet, and the
// operator loop's records.
type wireRun struct {
	o      runOpts
	out    *outcome
	tr     *tracer
	root   int
	specs  []agentSpec
	mgr    *agentproto.Manager
	fl     *fleet
	rng    *rand.Rand
	fleetW float64
	parts  []*core.Participant

	markets                  int
	marketMS                 []float64
	agentRounds, jobs        float64
	rounds, converged        float64
	bytesOut, bytesIn        float64
	broadcast, gather, merge []float64
	deliver                  []float64
	ingressNS, ingressN      float64
	oracleUS                 []float64
	// harnessS and harnessCPU are the wall and CPU seconds of the
	// benchmark's own checks and stage collection after each market, left
	// out of the timed figures.
	harnessS, harnessCPU float64
}

func newWireRun(o runOpts, specs []agentSpec) *wireRun {
	// Targets draw from their own stream, apart from the fleet's specs.
	w := &wireRun{o: o, out: &outcome{values: map[string]float64{}}, specs: specs,
		rng: rand.New(rand.NewSource(o.seed ^ 0x77697265))}
	for _, s := range specs {
		w.fleetW += s.cores * s.maxFrac * power.DefaultCPUCoreModel.DynamicW
	}
	return w
}

// managerConfig mirrors how mprd runs the manager: default rounds,
// tolerance, timeouts, shards and eviction budget, with telemetry and a
// tracer attached.
func managerConfig() agentproto.ManagerConfig {
	return agentproto.ManagerConfig{Telemetry: telemetry.NewRegistry(), Tracer: telemetry.NewTracer(1024)}
}

func runWire(o runOpts) (*outcome, error) {
	w := newWireRun(o, fleetSpecs(o.seed, wireAgents))
	if o.traced {
		w.tr = newTracer()
		w.root = w.tr.begin("run", "other", 0, "run")
	}
	mgr, fl, err := w.setup(managerConfig())
	if err != nil {
		return nil, err
	}
	w.mgr, w.fl = mgr, fl
	fl.start()
	stop := func() error {
		err := mgr.Close()
		fl.stop() // after Close: nothing can wake the workers any more
		return err
	}
	w.sideMarkets(warmupMarkets, nil)

	// Heap phase, before the timed phase so the run's own sample buffers
	// are not on the heap: markets with the collector marking the heap
	// after every 1% of growth, so the peak live heap is caught whatever
	// the collector's default pacing.
	fl.resetStats()
	hp := startRTSampler(time.Millisecond, heapPhaseGCPercent)
	w.sideMarkets(heapMarkets, nil)
	hp.finish()
	w.out.values["heap_peak_mb"] = hp.peakHeapMB()

	// The timed phase: segments of segmentMarkets markets, each preceded
	// by a burst of set-up samples. Spread through the run like the
	// markets, the set-up samples see the same mix of fast and slow
	// spells of the host rather than one second's worth. Their time is
	// left out of the segments' wall, CPU and runtime figures. The
	// segments group the timings for groupMedian and groupTail.
	fl.resetStats()
	var setups []float64
	var marketGroups, roundGroups [][]float64
	turnarounds := 0
	var wall, cpu, busy, peakG, gcCycles float64
	for start := time.Now(); w.markets < minMarkets || time.Since(start).Seconds() < o.seconds; {
		for i := 0; i < setupBurst; i++ {
			d, err := w.sampleSetup()
			if err != nil {
				stop()
				return nil, err
			}
			setups = append(setups, d)
		}
		rt := startRTSampler(50*time.Millisecond, 0)
		c0, t0, m0 := cpuSeconds(), time.Now(), len(w.marketMS)
		h0, hc0 := w.harnessS, w.harnessCPU
		for i := 0; i < segmentMarkets; i++ {
			w.market(w.target(), o.traced)
		}
		wall += time.Since(t0).Seconds() - (w.harnessS - h0)
		cpu += cpuSeconds() - c0 - (w.harnessCPU - hc0)
		rt.finish()
		peakG = max(peakG, float64(rt.peakG))
		gcCycles += rt.gcCycles()
		b, rs := fl.collectStats()
		fl.resetStats()
		busy += b
		marketGroups = append(marketGroups, w.marketMS[m0:])
		roundGroups = append(roundGroups, rs)
		turnarounds += len(rs)
	}
	w.out.values["setup_s"] = median(setups)
	w.out.values["rt.goroutines"] = peakG
	w.out.values["rt.gc_cycles"] = gcCycles
	w.out.values["jobs_per_s"] = w.jobs / wall
	w.out.values["market_p50_ms"] = groupMedian(marketGroups)
	w.out.values["market_p90_ms"] = groupTail(marketGroups, 0.9)
	w.out.values["round_p50_ms"] = groupMedian(roundGroups)
	w.out.values["round_p99_ms"] = groupTail(roundGroups, 0.99)
	w.out.values["cpu_us_per_agent_round"] = cpu / w.agentRounds * 1e6
	w.out.values["market.samples"] = float64(len(w.marketMS))
	w.out.values["round.samples"] = float64(turnarounds)
	w.out.values["mgr.rounds_per_market"] = w.rounds / float64(w.markets)
	w.out.values["mgr.converged_frac"] = w.converged / float64(w.markets)
	w.out.values["mgr.evictions"] = float64(w.mgr.Evictions())
	w.out.values["driver.busy_s"] = busy
	w.out.values["driver.share"] = busy / cpu
	w.out.values["driver.goroutines"] = float64(w.fl.peak.Load())
	if n := int(w.fl.peak.Load()); n > runtime.NumCPU() {
		w.out.fail("driver used %d goroutines on %d CPUs", n, runtime.NumCPU())
	}
	w.out.note("%d agents (%d JSON), %d markets, %.1f rounds/market, %d turnaround samples",
		len(w.specs), len(w.specs)/jsonEvery, w.markets, w.rounds/float64(w.markets), turnarounds)

	if o.traced {
		w.traceProbe()
	}
	w.finishFailures() // before stop, whose closes drop every agent
	if err := stop(); err != nil {
		return nil, err
	}
	if o.traced {
		w.tr.end(w.root)
		root := w.tr.spans[w.root-1]
		w.out.values["tracing.wall_s"] = float64(root.EndNS-root.StartNS) / 1e9
		w.out.values["mgr.broadcast_ms"] = median(w.broadcast)
		w.out.values["mgr.gather_wait_ms"] = median(w.gather)
		w.out.values["mgr.merge_clear_ms"] = median(w.merge)
		w.out.values["mgr.deliver_ms"] = median(w.deliver)
		w.out.values["mgr.ingress_wait_us"] = w.ingressNS / w.ingressN / 1e3
		w.out.values["mgr.bytes_out_per_round"] = w.bytesOut / w.rounds
		w.out.values["mgr.bytes_in_per_round"] = w.bytesIn / w.rounds
		w.out.values["oracle.clear_us"] = median(w.oracleUS)
		w.out.tr, w.out.root = w.tr, w.root
	}
	return w.out, nil
}

// finishFailures counts every agent the fleet lost as a failure: evicted
// by the manager or dropped for any other reason.
func (w *wireRun) finishFailures() {
	for _, a := range w.fl.agents {
		if a.dropped {
			w.out.fail("agent %s dropped: %s", a.spec.id, a.reason)
		}
	}
}

// sampleSetup times one set-up: a second manager and a second fleet,
// registered and then closed. Collecting before the sample starts every
// sample from the same heap, where otherwise every other sample pays for
// a collection the previous one provoked; collecting after it keeps its
// garbage off the markets that follow.
func (w *wireRun) sampleSetup() (float64, error) {
	runtime.GC()
	t0 := time.Now()
	m2, _, err := w.setup(managerConfig())
	d := time.Since(t0).Seconds()
	if err == nil {
		err = m2.Close()
	}
	runtime.GC()
	return d, err
}

// setup starts a manager and registers the whole fleet over in-memory
// connections: binary agents negotiate, every agent says hello, and set-up
// ends when the manager has registered them all.
func (w *wireRun) setup(mcfg agentproto.ManagerConfig) (*agentproto.Manager, *fleet, error) {
	id := w.tr.begin("setup", "mgr", w.root, "run")
	defer w.tr.end(id)
	sid := w.tr.begin("mgr.start", "mgr", id, "run")
	mgr, err := agentproto.NewManager("127.0.0.1:0", mcfg)
	w.tr.end(sid)
	if err != nil {
		return nil, nil, err
	}
	fl := newFleet(w.specs)
	if err := w.register(id, mgr, fl); err != nil {
		mgr.Close()
		return nil, nil, err
	}
	return mgr, fl, nil
}

func (w *wireRun) register(id int, mgr *agentproto.Manager, fl *fleet) error {
	sid := w.tr.begin("driver.register", "driver", id, "run")
	ends := make([]*memConn, len(fl.agents))
	for i, a := range fl.agents {
		mgrEnd, agentEnd := newMemPipe()
		a.conn, ends[i] = agentEnd, mgrEnd
		if err := mgr.ServeConn(mgrEnd); err != nil {
			return err
		}
		if a.spec.wire == agentproto.WireBinary {
			pre := []byte{'M', 'P', 'R', 'B', agentproto.FrameVersion}
			if _, err := agentEnd.Write(pre); err != nil {
				return fmt.Errorf("agent %s: preamble: %w", a.spec.id, err)
			}
			continue
		}
		a.codec = agentproto.NewCodec(agentEnd)
		if err := a.hello(); err != nil {
			return err
		}
	}
	for _, a := range fl.agents {
		if a.spec.wire != agentproto.WireBinary {
			continue
		}
		var ack [5]byte
		if _, err := io.ReadFull(a.conn, ack[:]); err != nil {
			return fmt.Errorf("agent %s: negotiation: %w", a.spec.id, err)
		}
		if string(ack[:4]) != "MPRA" || ack[4] < 1 {
			return fmt.Errorf("agent %s: negotiation answered %q", a.spec.id, ack[:])
		}
		a.codec = agentproto.NewFrameCodec(a.conn, a.conn)
		if err := a.hello(); err != nil {
			return err
		}
	}
	w.tr.end(sid)
	sid = w.tr.begin("mgr.register_wait", "mgr", id, "run")
	defer w.tr.end(sid)
	deadline := time.Now().Add(30 * time.Second)
	for mgr.AgentCount() < len(fl.agents) {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d agents registered", mgr.AgentCount(), len(fl.agents))
		}
		runtime.Gosched()
	}
	for i, a := range fl.agents {
		fl.attach(a, ends[i], w.o.traced)
	}
	return nil
}

func (a *vagent) hello() error {
	err := a.codec.Send(agentproto.Message{Type: agentproto.MsgHello, JobID: a.spec.id, Cores: a.spec.cores,
		WattsPerCore: power.DefaultCPUCoreModel.DynamicW, MaxFrac: a.spec.maxFrac})
	if err != nil {
		return fmt.Errorf("agent %s: hello: %w", a.spec.id, err)
	}
	return nil
}

// target draws the next market's power-reduction target from the seed.
func (w *wireRun) target() float64 { return w.fleetW * (0.15 + 0.3*w.rng.Float64()) }

// market runs one closed-loop market: RunMarket, wait for the fleet to
// take delivery of the orders, then check the outcome against the oracle.
func (w *wireRun) market(target float64, traced bool) {
	group := "m" + strconv.Itoa(w.markets)
	w.markets++
	w.out.attempted++
	fl := w.fl
	live := 0
	for _, a := range fl.agents {
		if !a.dropped {
			live++
			a.priceW, a.bidEnq, a.bidRead = a.priceW[:0], a.bidEnq[:0], a.bidRead[:0]
			a.orderW, a.bytesOut, a.bytesIn = 0, 0, 0
		}
	}
	orders0, drops0 := fl.orders.Load(), fl.drops.Load()
	fl.traceOn.Store(traced)

	mid := w.tr.begin("market", "mgr", w.root, group)
	t0 := time.Now()
	out, err := w.mgr.RunMarket(target)
	t1 := time.Now()
	w.tr.end(mid)
	if err != nil {
		w.out.fail("RunMarket: %v", err)
		return
	}
	w.marketMS = append(w.marketMS, float64(t1.Sub(t0).Nanoseconds())/1e6)
	res := out.Result
	w.rounds += float64(res.Rounds)
	if res.Converged {
		w.converged++
	}
	w.agentRounds += float64(len(out.Orders) * res.Rounds)
	w.jobs += float64(len(out.Orders))

	did := w.tr.begin("driver.drain", "driver", w.root, group)
	timer := time.NewTimer(drainTimeout)
	for int(fl.orders.Load()-orders0+fl.drops.Load()-drops0) < live {
		select {
		case <-fl.doorbell:
		case <-timer.C:
			w.out.fail("market %s: orders not delivered within %v", group, drainTimeout)
			timer.Stop()
			w.tr.end(did)
			return
		}
	}
	timer.Stop()
	w.tr.end(did)
	fl.traceOn.Store(false)
	if fl.drops.Load() != drops0 {
		w.out.note("market %s: fleet lost agents; oracle skipped", group)
		return
	}

	h0, hc0 := time.Now(), cpuSeconds()
	oid := w.tr.begin("oracle", "oracle", w.root, group)
	w.checkMarket(out, target, live)
	w.tr.end(oid)
	if traced {
		cid := w.tr.begin("tracing.collect", "tracing", w.root, group)
		w.stages(mid, group, t0, t1, res.Rounds)
		w.tr.end(cid)
	}
	w.harnessS += time.Since(h0).Seconds()
	w.harnessCPU += cpuSeconds() - hc0
}

// feasTol is the relative floating-point slack allowed when checking a
// clear's supply against its target and an award against its bound.
const feasTol = 1e-9

// checkMarket re-clears the fleet's own record of the final-round bids
// with core.Clear in roster order and requires a bit-identical price;
// Feasible must mean the target is supplied, every award must be within
// cores·MaxFrac, and every agent must have received its award exactly.
func (w *wireRun) checkMarket(out *agentproto.MarketOutcome, target float64, live int) {
	res := out.Result
	if len(out.Orders) != live {
		w.out.fail("%d orders for %d live agents", len(out.Orders), live)
		return
	}
	w.parts = w.parts[:0]
	for _, a := range w.fl.byID {
		if a.dropped {
			continue
		}
		if a.bidRound != res.Rounds {
			w.out.fail("agent %s last bid in round %d of %d", a.spec.id, a.bidRound, res.Rounds)
			return
		}
		w.parts = append(w.parts, &core.Participant{JobID: a.spec.id, Cores: a.spec.cores, Bid: a.bid,
			WattsPerCore: power.DefaultCPUCoreModel.DynamicW, MaxFrac: a.spec.maxFrac})
	}
	c0 := time.Now()
	ref, err := core.Clear(w.parts, target)
	w.oracleUS = append(w.oracleUS, float64(time.Since(c0).Nanoseconds())/1e3)
	if err != nil {
		w.out.fail("oracle clear: %v", err)
		return
	}
	if math.Float64bits(ref.Price) != math.Float64bits(res.Price) {
		w.out.fail("price %.17g, oracle re-clear %.17g", res.Price, ref.Price)
	}
	if res.Feasible && res.SuppliedW < target*(1-feasTol) {
		w.out.fail("Feasible with %g W supplied of %g W", res.SuppliedW, target)
	}
	for _, a := range w.fl.byID {
		if a.dropped {
			continue
		}
		award, ok := out.Orders[a.spec.id]
		if !ok {
			w.out.fail("no order for %s", a.spec.id)
			return
		}
		if bound := a.spec.cores * a.spec.maxFrac; award < 0 || award > bound*(1+feasTol) {
			w.out.fail("award %g to %s outside [0, %g]", award, a.spec.id, bound)
			return
		}
		if math.Float64bits(a.order) != math.Float64bits(award) {
			w.out.fail("%s received award %.17g, manager ordered %.17g", a.spec.id, a.order, award)
			return
		}
	}
}

// stages reconstructs a traced market's manager stages from the
// boundary stamps: install and encode until the first price write, then
// per round the broadcast (first to last price write), the gather wait
// (last price write to last bid read) and the merge and clear (last bid
// read to the next round's first write), then the order delivery.
func (w *wireRun) stages(mid int, group string, t0, t1 time.Time, rounds int) {
	first := make([]int64, rounds)
	last := make([]int64, rounds)
	lastRead := make([]int64, rounds)
	for r := range first {
		first[r] = math.MaxInt64
	}
	firstOrder := int64(math.MaxInt64)
	for _, a := range w.fl.agents {
		if len(a.priceW) != rounds || len(a.bidRead) != rounds {
			w.out.fail("agent %s: %d price writes and %d bid reads in a %d-round market",
				a.spec.id, len(a.priceW), len(a.bidRead), rounds)
			return
		}
		for r := 0; r < rounds; r++ {
			first[r] = min(first[r], a.priceW[r])
			last[r] = max(last[r], a.priceW[r])
			lastRead[r] = max(lastRead[r], a.bidRead[r])
			w.ingressNS += float64(a.bidRead[r] - a.bidEnq[r])
			w.ingressN++
		}
		firstOrder = min(firstOrder, a.orderW)
		w.bytesOut += float64(a.bytesOut)
		w.bytesIn += float64(a.bytesIn)
	}
	prev := t0.UnixNano()
	emit := func(name string, end int64) float64 {
		end = min(max(end, prev), t1.UnixNano())
		w.tr.add(span{Parent: mid, Name: name, Layer: "mgr", Group: group, StartNS: w.tr.rel(prev), EndNS: w.tr.rel(end)})
		d := float64(end-prev) / 1e6
		prev = end
		return d
	}
	emit("mgr.install", first[0])
	for r := 0; r < rounds; r++ {
		w.broadcast = append(w.broadcast, emit("mgr.broadcast", last[r]))
		w.gather = append(w.gather, emit("mgr.gather_wait", lastRead[r]))
		next := firstOrder
		if r+1 < rounds {
			next = first[r+1]
		}
		w.merge = append(w.merge, emit("mgr.merge_clear", next))
	}
	w.deliver = append(w.deliver, emit("mgr.deliver", t1.UnixNano()))
}

// sideMarkets runs n markets outside the run's figures: their checks
// count, their timings and stage records do not. With pairs set, each
// target runs twice, untraced then traced into a discarded tracer, and
// the two RunMarket times are returned.
func (w *wireRun) sideMarkets(n int, pairs *[2][]float64) {
	saved := *w
	w.tr, w.root = nil, 0
	for i := 0; i < n; i++ {
		target := w.target()
		if pairs == nil {
			w.market(target, false)
			continue
		}
		for k, traced := range []bool{false, true} {
			if traced {
				w.tr = newTracer()
			}
			m := len(w.marketMS)
			w.market(target, traced)
			if len(w.marketMS) > m {
				pairs[k] = append(pairs[k], w.marketMS[m])
			}
		}
		w.tr = nil
	}
	*w = saved
}

// traceProbe measures the tracing overhead after a traced run's timed
// phase: the difference of the median RunMarket times of paired
// untraced and traced markets on the same targets.
func (w *wireRun) traceProbe() {
	id := w.tr.begin("tracing.probe", "tracing", w.root, "run")
	defer w.tr.end(id)
	var pairs [2][]float64
	w.sideMarkets(probePairs, &pairs)
	off, on := median(pairs[0]), median(pairs[1])
	w.out.values["tracing.overhead_ms"] = on - off
	w.out.values["tracing.overhead_frac"] = on/off - 1
}
