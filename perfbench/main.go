// Command perfbench is the repository's benchmark. It runs one named
// workload through the public APIs of core, sim, netsim, switchnet,
// accel, protocol, tensor/kernels and transport, checks every
// aggregate, and prints its metrics as one JSON object on the last line
// of standard output.
//
//	perfbench --workload dqn-star --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// alternates untraced and traced repetitions, reports the per-layer
// metrics from the traced ones, and writes the spans as Chrome
// trace-event JSON (viewable in Perfetto) to
// .bench_build/perfbench-trace-<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"
)

// minRounds is the fewest rounds an untraced run measures, so its p95
// has at least ten samples above it. A traced run needs minRounds/2 of
// each kind: it compares medians only.
const minRounds = 200

// minSetups is the fewest set-ups a run measures for the setup median.
const minSetups = 3

// hardLimit bounds a run's measuring time whatever --seconds says.
const hardLimit = 150 * time.Second

// maxAttempts is how often a run tries one round on a fresh switch and
// clients before it counts the round as failed.
const maxAttempts = 3

// repResult is what one repetition measured: a fresh cluster (or switch
// and clients) set up, driven for a number of rounds, and torn down.
type repResult struct {
	setupCPU   time.Duration   // process CPU time of the set-up
	rounds     int             // rounds the per-round counters divide by
	roundsHost []time.Duration // wall time per round, harness checks excluded
	roundsCPU  []time.Duration // process CPU time per round, checks excluded
	roundsVirt []time.Duration // simulated time per round (simulator only)
	attempted  int             // rounds delivered to the workers
	failed     int             // delivered rounds that failed the check
	erred      int             // attempts that returned an error; the round is retried
	wrong      bool            // some completed round returned a wrong aggregate
	runHost    time.Duration
	events     uint64
	frames     uint64
	wireBytes  uint64
	mem        memSnap
	check      time.Duration
	layers     map[string]float64 // per-layer metrics (traced repetitions)
}

// workload is one named benchmark input.
type workload interface {
	// prepare computes the check's reference from the seed's inputs.
	prepare(seed int64)
	// rep runs one repetition.
	rep(seed int64, tr *tracer, rp *runtimeProbe) (*repResult, error)
}

// retrier is a workload whose rounds can fail to be delivered (a real
// transport); retry runs the one round a failed repetition left owing.
type retrier interface {
	retry(seed int64) (*repResult, error)
}

func (w *simWorkload) prepare(seed int64) {
	if w.async {
		return // the asynchronous check compares workers with each other
	}
	grads := gradients(seed, 4, w.floats)
	w.ref = make([]float64, w.floats)
	for _, g := range grads {
		for i, v := range g {
			w.ref[i] += float64(v)
		}
	}
}

func (w *udpWorkload) prepare(seed int64) { w.want = exactSum(gradients(seed, 2, w.floats)) }

func workloads() map[string]workload {
	return map[string]workload{
		"dqn-star":          dqnStar(),
		"ppo-fattree-async": ppoFatTreeAsync(),
		"udp-ddpg":          udpDDPG(),
	}
}

// gradients returns n workers' fixed gradients: seeded standard-normal
// values, one independent stream per worker.
func gradients(seed int64, n, floats int) [][]float32 {
	out := make([][]float32, n)
	for w := range out {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(w) + 1))
		g := make([]float32, floats)
		for i := range g {
			g[i] = float32(rng.NormFloat64())
		}
		out[w] = g
	}
	return out
}

func main() {
	name := flag.String("workload", "", "workload: dqn-star, ppo-fattree-async or udp-ddpg")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measuring time")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()

	w, ok := workloads()[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	traceOut := fmt.Sprintf(".bench_build/perfbench-trace-%s-%d.json", *name, *seed)
	out, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(map[string]any{"envelope": envelope()})
	fmt.Println(string(env))
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run repeats the workload until the measuring time is spent and enough
// rounds and set-ups are measured.
func run(w workload, seed int64, budget time.Duration, traced bool, traceOut string) (*result, error) {
	w.prepare(seed)
	steal0, ticks0, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	off := newTracer(false)
	tr := newTracer(traced)
	rp := newRuntimeProbe()

	var plain, withTrace []*repResult
	// owed counts the failed attempts at the round the last repetition
	// ended on; gaveUp counts rounds that failed maxAttempts times.
	owed, gaveUp := 0, 0
	settle := func(res *repResult) {
		switch {
		case res.erred == 0:
			owed = 0
		case res.attempted > 0:
			owed = 1 // a round after the retried one failed
		default:
			owed++
		}
		if owed == maxAttempts {
			gaveUp, owed = gaveUp+1, 0
		}
	}
	begin := time.Now()
	for i := 0; ; i++ {
		repStart := time.Now()
		tracedRep := traced && i%2 == 1
		repTr, repRp := off, (*runtimeProbe)(nil)
		if tracedRep {
			repTr, repRp = tr, rp
		}
		res, err := w.rep(seed, repTr, repRp)
		if err != nil {
			return nil, err
		}
		if tracedRep {
			withTrace = append(withTrace, res)
		} else {
			plain = append(plain, res)
		}
		settle(res)
		elapsed, last := time.Since(begin), time.Since(repStart)
		short := totalRounds(plain) < minRounds || len(plain) < minSetups
		if traced {
			short = totalRounds(plain) < minRounds/2 || totalRounds(withTrace) < minRounds/2
		}
		if elapsed+last > hardLimit || (!short && elapsed+last > budget) {
			break
		}
	}
	// Deliver the round the last repetition failed, if any, on its own.
	if rt, ok := w.(retrier); ok {
		for owed > 0 && time.Since(begin) < hardLimit {
			res, err := rt.retry(seed)
			if err != nil {
				return nil, err
			}
			plain = append(plain, res)
			settle(res)
		}
	}
	if owed > 0 {
		gaveUp++ // the time limit cut the retries short
	}

	out := &result{Correct: true, Attempted: gaveUp, Failed: gaveUp, Metrics: map[string]metric{}}
	for _, r := range append(append([]*repResult(nil), plain...), withTrace...) {
		out.Attempted += r.attempted
		out.Failed += r.failed
		out.Correct = out.Correct && !r.wrong
	}
	if out.Attempted == 0 {
		return nil, fmt.Errorf("no round attempted")
	}
	if !traced {
		endToEnd(out.Metrics, plain)
		return out, nil
	}
	steal1, ticks1, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	steal := frac(steal1-steal0, ticks1-ticks0)
	if err := perLayer(out.Metrics, plain, withTrace, tr, rp, steal, traceOut); err != nil {
		return nil, err
	}
	return out, nil
}

func totalRounds(rs []*repResult) int {
	n := 0
	for _, r := range rs {
		n += len(r.roundsHost)
	}
	return n
}

// endToEnd fills the metrics a user of the system sees.
func endToEnd(m map[string]metric, reps []*repResult) {
	var setups []float64
	var rounds []time.Duration // process CPU time per round
	var nRounds, attempted, failed, erred int
	var wire float64
	var mem memSnap
	for _, r := range reps {
		if r.rounds > 0 { // a repetition whose set-up failed has no set-up time
			setups = append(setups, r.setupCPU.Seconds())
		}
		rounds = append(rounds, r.roundsCPU...)
		nRounds += r.rounds
		attempted += r.attempted
		failed += r.failed
		erred += r.erred
		wire += float64(r.wireBytes)
		mem = mem.add(r.mem)
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS:", err)
	}
	R := float64(nRounds)
	m["setup_s"] = metric{median(setups), "s"}
	m["round_cpu_ms_p50"] = metric{durQuantile(rounds, 0.5, time.Millisecond), "ms"}
	m["round_cpu_ms_p95"] = metric{durQuantile(rounds, 0.95, time.Millisecond), "ms"}
	m["allocs_per_round"] = metric{frac(float64(mem.mallocs), R), "count"}
	m["alloc_bytes_per_round"] = metric{frac(float64(mem.bytes), R), "B"}
	m["peak_rss_mb"] = metric{rss, "MB"}
	m["wire_bytes_per_round"] = metric{frac(wire, R), "B"}
	m["ops_ok_frac"] = metric{frac(float64(attempted-failed), float64(attempted+erred)), "frac"}
}

// layerMetrics names every per-layer metric with its unit, in report
// order. A metric a workload has no layer for reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"sim.events_per_round", "count"},
	{"sim.host_ns_per_event", "ns"},
	{"sim.queue_len_max", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.virtual_round_us_p50", "sim_us"},
	{"sim.virtual_round_us_p90", "sim_us"},
	{"runtime.sched_latency_us_p50", "us"},
	{"runtime.sched_latency_us_p99", "us"},
	{"runtime.gc_cycles_per_round", "count"},
	{"runtime.gc_pause_ms_per_round", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"netsim.frames_per_round", "count"},
	{"netsim.allocs_per_frame", "count"},
	{"netsim.access_busy_frac", "frac"},
	{"netsim.uplink_bytes_per_round", "B"},
	{"netsim.drops_per_round", "count"},
	{"netsim.frames_per_s", "1/s"},
	{"protocol.segment_ns_per_frame", "ns"},
	{"protocol.segment_allocs_per_frame", "count"},
	{"protocol.assemble_ns_per_frame", "ns"},
	{"protocol.marshal_ns_per_frame", "ns"},
	{"protocol.unmarshal_ns_per_frame", "ns"},
	{"accel.packets_in_per_round", "count"},
	{"accel.cycles_per_round", "count"},
	{"accel.busy_frac", "frac"},
	{"accel.dup_frac", "frac"},
	{"switchnet.shadow_hits_per_round", "count"},
	{"core.helps_per_round", "count"},
	{"core.aggregate_host_ms_p50", "ms"},
	{"core.aggregate_virtual_us_p50", "sim_us"},
	{"core.discard_frac", "frac"},
	{"core.staleness_mean", "count"},
	{"kernels.f16_pack_ns_per_frame", "ns"},
	{"kernels.f16_unpack_ns_per_frame", "ns"},
	{"transport.data_in_per_round", "count"},
	{"transport.broadcasts_per_round", "count"},
	{"transport.control_in_per_round", "count"},
	{"transport.rcvbuf_errors_per_round", "count"},
	{"transport.encode_ns_per_frame", "ns"},
	{"transport.decode_ns_per_frame", "ns"},
	{"transport.frames_per_s", "1/s"},
	{"perfmodel.round_error_frac", "frac"},
	{"host.steal_frac", "frac"},
	{"host.round_wall_ms_p50", "ms"},
	{"host.round_wall_ms_p95", "ms"},
	{"bench.check_ms_per_round", "ms"},
	{"bench.trace_overhead_frac", "frac"},
}

// perLayer fills the per-layer metrics from the traced repetitions,
// writes the trace file, and prints each layer's self time to stderr.
// steal is the host's share of CPU ticks stolen during the run.
func perLayer(m map[string]metric, plain, traced []*repResult, tr *tracer, rp *runtimeProbe, steal float64, traceOut string) error {
	vals := map[string]float64{"host.steal_frac": steal}
	perRep := map[string][]float64{}
	var tracedRounds []time.Duration // process CPU time per round
	var check time.Duration
	var mem memSnap
	nRounds := 0
	for _, r := range traced {
		for k, v := range r.layers {
			perRep[k] = append(perRep[k], v)
		}
		tracedRounds = append(tracedRounds, r.roundsCPU...)
		check += r.check
		mem = mem.add(r.mem)
		nRounds += r.rounds
	}
	for k, vs := range perRep {
		vals[k] = median(vs)
	}
	var plainRounds, plainWall []time.Duration
	for _, r := range plain {
		plainRounds = append(plainRounds, r.roundsCPU...)
		plainWall = append(plainWall, r.roundsHost...)
	}
	vals["host.round_wall_ms_p50"] = durQuantile(plainWall, 0.5, time.Millisecond)
	vals["host.round_wall_ms_p95"] = durQuantile(plainWall, 0.95, time.Millisecond)
	vals["runtime.sched_latency_us_p50"] = rp.schedQuantileUs(0.5)
	vals["runtime.sched_latency_us_p99"] = rp.schedQuantileUs(0.99)
	vals["runtime.heap_peak_mb"] = float64(rp.heapMax) / (1 << 20)
	vals["runtime.gc_cycles_per_round"] = frac(float64(mem.gcs), float64(nRounds))
	vals["runtime.gc_pause_ms_per_round"] = frac(float64(mem.pauseNs)/1e6, float64(nRounds))
	if ds := tr.durations("core.aggregate"); len(ds) > 0 {
		vals["core.aggregate_host_ms_p50"] = durQuantile(ds, 0.5, time.Millisecond)
		vals["core.aggregate_virtual_us_p50"] = durQuantile(tr.virtDurations("core.aggregate"), 0.5, time.Microsecond)
	}
	vals["bench.check_ms_per_round"] = frac(float64(check)/1e6, float64(nRounds))
	base := durQuantile(plainRounds, 0.5, time.Millisecond)
	vals["bench.trace_overhead_frac"] = frac(durQuantile(tracedRounds, 0.5, time.Millisecond), base) - 1
	for _, lm := range layerMetrics {
		m[lm.name] = metric{vals[lm.name], lm.unit}
	}

	self := tr.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, "perfbench: self time %-10s %10.3f ms/round\n", l, frac(float64(self[l])/1e6, float64(nRounds)))
	}
	return tr.writeChrome(traceOut, envelope(), self)
}
