package main

import (
	"fmt"
	"math"
	"time"

	"iswitch/internal/core"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// aggTolerance is the repository's own fp32 aggregation tolerance
// against a float64 reference sum (accel's TestAggregationFloatTolerance).
const aggTolerance = 1e-3

// queueSampleEvery is the simulated period of the traced run's
// event-queue length sampler.
const queueSampleEvery = 10 * time.Microsecond

// simWorkload is a closed-loop training job on the discrete-event
// simulator: every worker sends its next gradient only after its
// previous aggregate returned.
type simWorkload struct {
	name   string
	rounds int // worker 0's rounds per repetition
	floats int
	async  bool
	// model carries the compute and update costs and is the input of
	// perfmodel.ExpectedSyncRound.
	model perfmodel.Workload
	spec  func(seed int64) core.ClusterSpec
	// ref is the float64 reference sum of the seed's gradients, set by
	// prepare (synchronous workloads only).
	ref []float64
}

// dqnStar is synchronous in-switch training of the paper's DQN model on
// one 10 GbE star of 4 workers, raw fp32: bulk bytes, no loss.
func dqnStar() *simWorkload {
	w := perfmodel.Workloads()[0] // DQN: 1,602,500 floats, 11.7 ms / 2 ms
	return &simWorkload{
		name: "dqn-star", rounds: 30, floats: w.Floats(), model: w,
		spec: func(int64) core.ClusterSpec {
			return core.ClusterSpec{Topology: core.TopoStar, Mode: core.ModeISW,
				Workers: 4, ModelFloats: w.Floats(), Link: netsim.TenGbE()}
		},
	}
}

// ppoFatTreeAsync is Algorithm 1 (staleness bound 4) of the PPO model on
// a k=4 fat-tree with 2 hosts per edge (16 workers), fp16 on the wire,
// 1% seeded loss both ways on every access link, dedup and Help timers
// armed, with the reliability sweep's 500 µs / 100 µs costs.
func ppoFatTreeAsync() *simWorkload {
	const floats = 10_005 // PPO, Table 1
	model := perfmodel.Workload{Name: "PPO", ModelBytes: 4 * floats,
		LocalCompute: 500 * time.Microsecond, WeightUpdate: 100 * time.Microsecond}
	return &simWorkload{
		name: "ppo-fattree-async", rounds: 200, floats: floats, async: true, model: model,
		spec: func(seed int64) core.ClusterSpec {
			link := netsim.TenGbE()
			cfg := core.DefaultISWConfig()
			cfg.RecoveryTimeout = core.RecoveryTimeoutFor(model, link)
			plan := &netsim.FaultPlan{Seed: seed}
			for w := 0; w < 16; w++ {
				plan.Links = append(plan.Links, netsim.LinkFault{Worker: w, Dir: netsim.DirBoth, Loss: 0.01})
			}
			return core.ClusterSpec{Topology: core.TopoFatTree, Mode: core.ModeISW,
				KAry: 4, HostsPerEdge: 2, ModelFloats: floats,
				Compression: protocol.CompFP16, Link: link, Uplink: netsim.FortyGbE(),
				ISW: &cfg, Dedup: true, Faults: plan}
		},
	}
}

// simRep is one repetition in flight: the kernel, the hooks the agents
// call, and what they measured.
type simRep struct {
	k      *sim.Kernel
	tr     *tracer
	rp     *runtimeProbe // nil in an untraced repetition
	ref    []float64     // float64 reference sum (synchronous check)
	res    *repResult
	done   bool
	setOff bool // setup has ended

	lastMark   time.Time
	checkSince time.Duration // harness check time since lastMark
	cpuStart   time.Duration // process CPU time at start
	lastCPU    time.Duration // process CPU time at lastMark
	checkCPU   time.Duration // harness check CPU time since lastMark
	mem0       memSnap
	sched0     []uint64

	repSpan, runSpan, roundSpan int64

	// first[i] is the hash of the first aggregate applied for update i
	// (seen[i] once it is set); applied[w] counts worker w's applied
	// aggregates; bad[i] marks update i as failing its check.
	first   []uint64
	seen    []bool
	applied []int
	bad     []bool
}

// benchAgent feeds one worker's fixed gradient to the trainer and hands
// every applied aggregate to the harness.
type benchAgent struct {
	rep    *simRep
	worker int
	grad   []float32
	filled *float32 // the trainer buffer last filled (it reuses one)
}

func (a *benchAgent) Name() string             { return "perfbench" }
func (a *benchAgent) GradLen() int             { return len(a.grad) }
func (a *benchAgent) ReadParams([]float32)     {}
func (a *benchAgent) WriteParams([]float32)    {}
func (a *benchAgent) DrainEpisodes() []float64 { return nil }

func (a *benchAgent) ComputeGradient(dst []float32) {
	a.rep.markSetup()
	if a.filled != &dst[0] {
		copy(dst, a.grad)
		a.filled = &dst[0]
	}
}

func (a *benchAgent) ApplyAggregated(sum []float32, _ int) { a.rep.apply(a.worker, sum) }

// markSetup ends the set-up phase at the first gradient computation.
func (r *simRep) markSetup() {
	if r.setOff {
		return
	}
	r.setOff = true
	now, cpu := time.Now(), cpuNow()
	r.res.setupCPU = cpu - r.cpuStart
	r.lastMark, r.lastCPU = now, cpu
	r.mem0 = readMem()
	if r.rp != nil {
		r.sched0 = r.rp.schedCounts()
	}
	r.roundSpan = r.tr.begin("sim.round", r.runSpan, 0, r.k.Now())
}

// apply records worker 0's round boundary and checks the aggregate.
func (r *simRep) apply(worker int, sum []float32) {
	idx := r.applied[worker]
	r.applied[worker]++
	if worker == 0 {
		now, cpu := time.Now(), cpuNow()
		r.res.roundsHost = append(r.res.roundsHost, now.Sub(r.lastMark)-r.checkSince)
		r.res.roundsCPU = append(r.res.roundsCPU, cpu-r.lastCPU-r.checkCPU)
		r.lastMark, r.checkSince = now, 0
		r.lastCPU, r.checkCPU = cpu, 0
		r.tr.end(r.roundSpan, r.k.Now())
		r.roundSpan = r.tr.begin("sim.round", r.runSpan, int64(idx+1), r.k.Now())
		if r.rp != nil {
			r.rp.sampleHeap()
		}
	}

	c0, cpu0 := time.Now(), cpuNow()
	id := r.tr.begin("bench.check", r.roundSpan, int64(idx), r.k.Now())
	h := hashFloats(sum)
	for len(r.first) <= idx {
		r.first = append(r.first, 0)
		r.seen = append(r.seen, false)
		r.bad = append(r.bad, false)
	}
	switch {
	case !r.seen[idx]:
		r.first[idx], r.seen[idx] = h, true
		if r.ref != nil && !withinTolerance(sum, r.ref) {
			r.bad[idx] = true
		}
	case r.first[idx] != h:
		r.bad[idx] = true
	}
	r.tr.end(id, r.k.Now())
	d := time.Since(c0)
	r.checkCPU += cpuNow() - cpu0
	r.checkSince += d
	r.res.check += d
}

func withinTolerance(sum []float32, ref []float64) bool {
	if len(sum) != len(ref) {
		return false
	}
	for i, v := range sum {
		if math.Abs(float64(v)-ref[i]) > aggTolerance {
			return false
		}
	}
	return true
}

// rep builds the cluster, trains w.rounds rounds and measures them.
func (w *simWorkload) rep(seed int64, tr *tracer, rp *runtimeProbe) (*repResult, error) {
	r := &simRep{tr: tr, rp: rp, ref: w.ref, res: &repResult{rounds: w.rounds}}
	r.cpuStart = cpuNow()
	r.repSpan = tr.begin("bench.rep", 0, 0, noVirt)
	setupID := tr.begin("bench.setup", r.repSpan, 0, noVirt)

	r.k = sim.NewKernel()
	k := r.k
	cluster := core.Build(k, w.spec(seed))
	workers := cluster.Workers()
	n := len(workers)
	grads := gradients(seed, n, w.floats)
	r.applied = make([]int, n)
	agents := make([]rl.Agent, n)
	for i := range agents {
		agents[i] = &benchAgent{rep: r, worker: i, grad: grads[i]}
	}
	done := func() { r.done = true }
	var astats *core.AsyncStats
	var stats *core.RunStats
	if w.async {
		astats = core.SpawnAsyncISW(k, agents, cluster.ISW, core.AsyncConfig{
			Updates: int64(w.rounds), StalenessBound: 4,
			LocalCompute: w.model.LocalCompute, WeightUpdate: w.model.WeightUpdate}, done)
		stats = &astats.RunStats
	} else {
		services := make([]core.Service, n)
		for i := range services {
			services[i] = cluster.Client(i)
			if tr.on {
				services[i] = &tracedService{Service: services[i], rep: r}
			}
		}
		stats = core.SpawnSync(k, agents, services, core.SyncConfig{Iterations: w.rounds,
			LocalCompute: w.model.LocalCompute, WeightUpdate: w.model.WeightUpdate}, done)
	}
	tr.end(setupID, noVirt)

	var samples uint64
	qmax := 0
	if rp != nil {
		var sample func()
		sample = func() {
			samples++
			qmax = max(qmax, k.QueueLen())
			if !r.done && k.QueueLen() > 0 {
				k.After(queueSampleEvery, sample)
			}
		}
		k.After(0, sample)
	}

	r.runSpan = tr.begin("sim.run", r.repSpan, 0, 0)
	t0 := time.Now()
	k.Run()
	res := r.res
	res.runHost = time.Since(t0)
	res.mem = readMem().sub(r.mem0)
	tr.end(r.roundSpan, k.Now()) // the unfinished round after the last
	tr.end(r.runSpan, k.Now())
	virtEnd := k.Now()
	k.Shutdown()
	if rp != nil && r.sched0 != nil {
		rp.addSched(r.sched0)
	}

	// Correctness: every worker applied every round, identically.
	res.attempted = w.rounds
	for i := 0; i < w.rounds; i++ {
		failed := i >= len(r.bad) || r.bad[i]
		for _, a := range r.applied {
			failed = failed || a <= i
		}
		if failed {
			res.failed++
			res.wrong = true
		}
	}
	if !r.setOff || len(res.roundsHost) < w.rounds {
		return nil, fmt.Errorf("%s: worker 0 applied %d of %d rounds", w.name, len(res.roundsHost), w.rounds)
	}

	for _, ws := range stats.Workers {
		for _, it := range ws.Iters {
			res.roundsVirt = append(res.roundsVirt, it.Total())
		}
	}
	res.events = k.Events() - samples
	var fabric, access, drops, busy float64
	for _, p := range allPorts(cluster) {
		res.frames += p.TxPackets
		fabric += float64(p.TxBytes)
		drops += float64(p.Dropped)
	}
	for _, h := range workers {
		for _, p := range []*netsim.Port{h.Port(), h.Port().Peer()} {
			access += float64(p.TxBytes)
			cfg := p.Config()
			busy += float64(p.TxBytes*8)/cfg.BitsPerSecond + float64(p.TxPackets)*cfg.PerPacketOverhead.Seconds()
		}
	}
	uplink := fabric - access
	res.wireBytes = uint64(access)

	if rp == nil {
		tr.end(r.repSpan, noVirt)
		return res, nil
	}

	R := float64(w.rounds)
	virtP50 := durQuantile(res.roundsVirt, 0.5, time.Microsecond)
	var accIn, accCycles, accDup, accBusy, shadowHits float64
	switches := cluster.Switches()
	for _, is := range switches {
		acc := is.Accelerator()
		st := acc.Stats()
		accIn += float64(st.PacketsIn)
		accCycles += float64(st.Cycles)
		accDup += float64(st.DupDropped)
		accBusy += acc.CyclesToDuration(int(st.Cycles)).Seconds()
		shadowHits += float64(is.Shadow().Stats().Hits)
	}
	expected := float64(perfmodel.ExpectedSyncRound(w.model, netsim.TenGbE().BitsPerSecond)) / 1e3
	res.layers = map[string]float64{
		"sim.events_per_round":            float64(res.events) / R,
		"sim.host_ns_per_event":           frac(float64(res.runHost), float64(res.events)),
		"sim.queue_len_max":               float64(qmax),
		"sim.events_per_s":                frac(float64(res.events), res.runHost.Seconds()),
		"sim.virtual_round_us_p50":        virtP50,
		"sim.virtual_round_us_p90":        durQuantile(res.roundsVirt, 0.9, time.Microsecond),
		"netsim.frames_per_round":         float64(res.frames) / R,
		"netsim.allocs_per_frame":         frac(float64(res.mem.mallocs), float64(res.frames)),
		"netsim.access_busy_frac":         frac(busy, float64(2*n)*virtEnd.Seconds()),
		"netsim.uplink_bytes_per_round":   uplink / R,
		"netsim.drops_per_round":          drops / R,
		"netsim.frames_per_s":             frac(float64(res.frames), res.runHost.Seconds()),
		"accel.packets_in_per_round":      accIn / R,
		"accel.cycles_per_round":          accCycles / R,
		"accel.busy_frac":                 frac(accBusy, float64(len(switches))*virtEnd.Seconds()),
		"accel.dup_frac":                  frac(accDup, accIn),
		"switchnet.shadow_hits_per_round": shadowHits / R,
		"core.helps_per_round":            float64(cluster.ISW.HelpsSent) / R,
		"perfmodel.round_error_frac":      math.Abs(virtP50-expected) / expected,
	}
	if astats != nil {
		res.layers["core.discard_frac"] = frac(float64(astats.Discarded), float64(astats.Committed+astats.Discarded))
		res.layers["core.staleness_mean"] = astats.MeanStaleness()
	}
	if err := timeCodecs(res.layers, tr, r.repSpan, int64(w.rounds), grads[0], protocol.FloatsPerPacket); err != nil {
		return nil, err
	}
	tr.end(r.repSpan, noVirt)
	return res, nil
}

// tracedService wraps a synchronous worker's aggregation handle with a
// span per Aggregate call.
type tracedService struct {
	core.Service
	rep   *simRep
	round int64
}

func (s *tracedService) Aggregate(p *sim.Proc, grad []float32) []float32 {
	id := s.rep.tr.begin("core.aggregate", s.rep.roundSpan, s.round, p.Now())
	out := s.Service.Aggregate(p, grad)
	s.rep.tr.end(id, p.Now())
	s.round++
	return out
}

// allPorts lists every link direction of the cluster's fabric once: the
// worker NICs and every port of every switch.
func allPorts(c *core.Cluster) []*netsim.Port {
	var ports []*netsim.Port
	for _, h := range c.Workers() {
		ports = append(ports, h.Port())
	}
	isw := c.ISW
	var switches []*netsim.Switch
	switch {
	case isw.StarSwitch != nil:
		switches = append(switches, isw.StarSwitch.Switch())
	case isw.FatTree != nil:
		ft := isw.FatTree.Net
		switches = append(switches, ft.Cores...)
		for pod := range ft.Aggs {
			switches = append(switches, ft.Aggs[pod]...)
			switches = append(switches, ft.Edges[pod]...)
		}
	}
	for _, s := range switches {
		ports = append(ports, s.Ports()...)
	}
	return ports
}
